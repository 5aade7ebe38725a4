"""Local tester and greedy decoder for square-complex codes.

The tester picks a uniform random vertex g and accepts a word f on the
squares iff the local view f|_{S(g)}, pulled back through the labelling
map, lies in the tensor square of the base code.  reject_probability
computes the exact rejection probability D(f) by a full vertex scan.

The decoder keeps one local codeword W_g per vertex (fiber-constant on the
labelling map, so degenerate vertices where TNC fails are handled), counts
disagreeing edges Delta(W), and greedily replaces single-vertex views while
any replacement strictly reduces Delta.  Termination with Delta = 0 yields
a codeword; otherwise the word is declared far and the final dispute set
supports the counting diagnostics n1, n_par, n2, n2'.  Vertices are grouped
by fiber pattern (which slots of the view share a square); the start state,
every vertex's nearest local codeword, is one array pass per pattern.

kappa_experiment and decode_experiment run seeded trials, one RNG stream
per (seed, trial index), so their rows do not depend on the worker count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .codes import LinearCode, tensor_code
from .complexes import CayleyComplex
from .f2core import BitVector, DimensionBudgetError
from .spectral import parallel_neighbor_table

NEAREST_SEARCH_MAX_DIM = 20
# entries in one temporary of the decoder tables and the nearest-codeword
# pass (8 MB of float64), so that large instances add no peak memory
DECODE_BLOCK = 1 << 20


@dataclass
class TesterParams:
    """Derived tester constants for one instance."""

    __test__ = False        # not a pytest class despite the name

    r: int
    delta1: float
    sigma1: float
    lam: float

    @property
    def query_count(self) -> int:
        """r^2; an upper bound, attained exactly at TNC vertices."""
        return self.r * self.r

    @property
    def kappa_proof(self) -> float:
        """(1/4r)(sigma1*delta1/(16+sigma1) - lambda), the proof-consistent bound."""
        return (self.sigma1 * self.delta1 / (16 + self.sigma1) - self.lam) / (4 * self.r)

    @property
    def kappa_statement(self) -> float:
        """Laxer variant with 8+sigma1 in the denominator; reported alongside
        kappa_proof for comparison but never asserted."""
        return (self.sigma1 * self.delta1 / (8 + self.sigma1) - self.lam) / (4 * self.r)

    @property
    def hypotheses_hold(self) -> bool:
        return self.lam < self.sigma1 * self.delta1 / (16 + self.sigma1)

    def to_dict(self) -> dict:
        return {
            "r": self.r, "delta1": self.delta1, "sigma1": self.sigma1,
            "lambda": self.lam, "query_count": self.query_count,
            "kappa_proof": self.kappa_proof, "kappa_statement": self.kappa_statement,
            "hypotheses_hold": self.hypotheses_hold,
        }


@dataclass
class DecodeOutcome:
    kind: str                        # "codeword" | "far"
    word: BitVector | None
    iterations: int
    delta_initial: int
    delta_final: int
    delta_trace: list[int]
    disputed_edges: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


class SquareCodeTester:
    """Tester + decoder context for one (complex, base code) pair."""

    def __init__(self, X: CayleyComplex, C1: LinearCode,
                 code: LinearCode | None = None):
        if X.nA != X.nB:
            raise ValueError("tester needs |A| = |B|")
        if C1.n != X.nA:
            raise ValueError(f"base code length {C1.n} != r = {X.nA}")
        self.X = X
        self.C1 = C1
        self.C0 = tensor_code(C1)
        self.code = code
        self.r = X.nA
        self.n_squares = X.n_squares
        self._h1 = C1.parity.to_array().astype(np.int64)
        self._grid = X.square_id                     # (r, n, r)
        self._cand_flat = None
        self._pattern_of = None      # set last by _ensure_tables, with _pattern_*
        self._table_lock = threading.Lock()   # decode trials may share a tester

    # -- tester ------------------------------------------------------------

    def reject_vector(self, f) -> np.ndarray:
        """Boolean per-vertex rejection, all vertices at once."""
        f_bits = f.to_bits() if isinstance(f, BitVector) else np.asarray(f, np.uint8)
        if f_bits.shape[0] != self.n_squares:
            raise ValueError(f"word length {f_bits.shape[0]} != |S| = {self.n_squares}")
        return self._rejects(f_bits[self._grid].astype(np.int64))

    def _rejects(self, views: np.ndarray) -> np.ndarray:
        """Boolean per vertex: some row or column of its view in the int64
        (a, g, b) grid views fails a parity check of C1."""
        if self._h1.size == 0:
            return np.zeros(self.X.n_vertices, dtype=bool)
        col_syn = np.tensordot(self._h1, views, axes=([1], [0])) & 1   # (nh, n, r)
        row_syn = np.tensordot(self._h1, views, axes=([1], [2])) & 1   # (nh, r, n)
        return col_syn.any(axis=(0, 2)) | row_syn.any(axis=(0, 1))

    def reject_probability(self, f) -> float:
        """Exact D(f) by full vertex scan."""
        return float(self.reject_vector(f).sum()) / self.X.n_vertices

    def reject_probability_sampled(self, f, samples: int, seed: int = 0) -> dict:
        """Monte-Carlo estimate of D(f); clearly labeled as an estimate."""
        rng = np.random.default_rng(seed)
        f_bits = f.to_bits() if isinstance(f, BitVector) else np.asarray(f, np.uint8)
        verts = rng.integers(0, self.X.n_vertices, size=samples)
        rejected = 0
        for g in verts:
            view = f_bits[self._grid[:, int(g), :]].astype(np.int64)
            if self._h1.size:
                bad = ((self._h1 @ view) & 1).any() or ((self._h1 @ view.T) & 1).any()
                rejected += bad
        return {"estimate": rejected / samples, "samples": samples, "exact": False}

    def accepts_everywhere(self, f) -> bool:
        return not self.reject_vector(f).any()

    def valid_views(self, wgrid: np.ndarray) -> np.ndarray:
        """Boolean per vertex: its view in the (a, g, b) grid wgrid is
        fiber-constant (equal wherever the underlying square is equal) and
        lies in the local tensor code."""
        n = self.X.n_vertices
        ids = self._grid.transpose(1, 0, 2).reshape(n, -1)
        vals = wgrid.transpose(1, 0, 2).reshape(n, -1)
        order = np.argsort(ids, axis=1, kind="stable")
        fs = np.take_along_axis(ids, order, axis=1)
        vs = np.take_along_axis(vals, order, axis=1)
        clash = (fs[:, 1:] == fs[:, :-1]) & (vs[:, 1:] != vs[:, :-1])
        return ~clash.any(axis=1) & ~self._rejects(wgrid.astype(np.int64))

    # -- decoder tables -----------------------------------------------------

    def _ensure_tables(self):
        """Candidate table and per-pattern decoder tables.

        A vertex's fiber pattern is key[j] = the first slot i of its r x r
        view that carries the same square as slot j.  Vertices with equal
        keys share their distinct-square positions (first slots), their
        fiber-constant candidates and those candidates' rows.
        """
        if self._pattern_of is not None:
            return
        with self._table_lock:
            if self._pattern_of is not None:
                return
            k0 = self.C0.k
            if k0 > NEAREST_SEARCH_MAX_DIM:
                raise DimensionBudgetError(
                    f"local code dimension k1^2 = {k0} exceeds the nearest-codeword "
                    f"search budget {NEAREST_SEARCH_MAX_DIM}; the greedy loop needs "
                    f"an enumerable local code")
            words = self.C0.codewords()
            cand = np.stack([w.to_bits() for w in words])     # (n_cand, r^2)
            order = np.lexsort(cand.T[::-1])                  # lexicographic
            cand = np.ascontiguousarray(cand[order])
            n, r2 = self.X.n_vertices, self.r * self.r
            keys = np.empty((n, r2), dtype=np.min_scalar_type(r2 - 1))
            step = max(1, DECODE_BLOCK // (r2 * r2))
            for lo in range(0, n, step):
                flat = self._grid[:, lo:lo + step, :].transpose(1, 0, 2).reshape(-1, r2)
                keys[lo:lo + step] = (flat[:, :, None] == flat[:, None, :]).argmax(axis=1)
            # one bytes object per key row: np.unique(axis=0) sorts ~100x slower
            key_rows = keys.view(np.dtype((np.void, keys.itemsize * r2))).ravel()
            _, first_vertex, pattern_of = np.unique(
                key_rows, return_index=True, return_inverse=True)
            firsts, cand_ids, rows = [], [], []
            for key in keys[first_vertex].astype(np.intp):
                firsts.append(np.flatnonzero(key == np.arange(r2)))
                cand_ids.append(np.flatnonzero((cand[:, key] == cand).all(axis=1)))
                rows.append(cand[cand_ids[-1]])
            self._cand_flat = cand
            self._pattern_first = firsts
            self._pattern_cands = cand_ids
            self._pattern_rows = rows
            self._pattern_of = pattern_of.reshape(-1)   # last: tables built

    def _nearest_in_pattern(self, f_bits: np.ndarray, p: int,
                            verts: np.ndarray) -> np.ndarray:
        """Candidate ids of the nearest local codewords at verts, all of
        fiber pattern p.

        The distance of a 0/1 view v to a candidate c on the distinct
        squares is wt(v) + wt(c) - 2<v, c>, exact in float64 at these
        sizes; argmin keeps the first (lexicographically least) minimum.
        """
        first, cand_ids = self._pattern_first[p], self._pattern_cands[p]
        a, b = np.divmod(first, self.r)
        proj = self._pattern_rows[p][:, first]
        proj_t = proj.T.astype(np.float64)
        cand_wt = proj.sum(axis=1, dtype=np.float64)
        out = np.empty(len(verts), dtype=np.int64)
        step = max(1, DECODE_BLOCK // max(len(cand_ids), len(first)))
        for lo in range(0, len(verts), step):
            v = verts[lo:lo + step]
            views = f_bits[self._grid[a[None, :], v[:, None], b[None, :]]]
            dists = (views.sum(axis=1, dtype=np.float64)[:, None] + cand_wt
                     - 2 * (views @ proj_t))
            out[lo:lo + step] = cand_ids[dists.argmin(axis=1)]
        return out

    def nearest_local_codeword(self, f_bits: np.ndarray, g: int) -> int:
        """Index into the candidate table of the closest fiber-constant
        tensor codeword to f's view at g, distance on distinct squares,
        ties to the lexicographically least grid."""
        self._ensure_tables()
        p = int(self._pattern_of[g])
        return int(self._nearest_in_pattern(f_bits, p, np.array([g]))[0])

    def nearest_local_codewords(self, f_bits: np.ndarray) -> np.ndarray:
        """nearest_local_codeword at every vertex, one array pass per pattern."""
        self._ensure_tables()
        out = np.empty(self.X.n_vertices, dtype=np.int64)
        for p in range(len(self._pattern_first)):
            verts = np.flatnonzero(self._pattern_of == p)
            out[verts] = self._nearest_in_pattern(f_bits, p, verts)
        return out

    def start_views(self, f) -> np.ndarray:
        """The decoder's start state: the (a, g, b) grid of every vertex's
        nearest local codeword."""
        f_bits = f.to_bits() if isinstance(f, BitVector) else np.asarray(f, np.uint8)
        ci = self.nearest_local_codewords(f_bits)     # builds the tables first
        views = self._cand_flat[ci]
        return np.ascontiguousarray(views.reshape(-1, self.r, self.r).transpose(1, 0, 2))

    # -- decoder ------------------------------------------------------------

    def _edge_disagreements(self, wgrid: np.ndarray) -> np.ndarray:
        """Boolean per edge: the two endpoint views differ on the edge."""
        X = self.X
        nEA = X.n_left_edges
        rep = X.edge_rep
        la, lg = rep[:nEA, 1], rep[:nEA, 2]
        ag = X.left_perms[la, lg]
        va = wgrid[la, lg, :]
        vb = wgrid[X.a_inv_pos[la], ag, :]
        left_dis = (va != vb).any(axis=1)
        rb, rg = rep[nEA:, 1], rep[nEA:, 2]
        gb = X.right_perms[rb, rg]
        wa = wgrid[:, rg, rb]
        wb = wgrid[:, gb, X.b_inv_pos[rb]]
        right_dis = (wa != wb).any(axis=0)
        return np.concatenate([left_dis, right_dis])

    def _local_delta(self, wgrid: np.ndarray, g: int,
                     cand_rows: np.ndarray) -> np.ndarray:
        """Disputed incident edges per candidate view at g (vectorized)."""
        X, r = self.X, self.r
        total = np.zeros(cand_rows.shape[0], dtype=np.int64)
        for a in range(r):
            ag = int(X.left_perms[a, g])
            nbr = wgrid[int(X.a_inv_pos[a]), ag, :]
            mine = cand_rows[:, a * r:(a + 1) * r]
            total += (mine != nbr[None, :]).any(axis=1)
        for b in range(r):
            gb = int(X.right_perms[b, g])
            nbr = wgrid[:, gb, int(X.b_inv_pos[b])]
            mine = cand_rows[:, b::r]
            total += (mine != nbr[None, :]).any(axis=1)
        return total

    def decode(self, f, max_iterations: int | None = None,
               full_rescan_every: int = 64) -> DecodeOutcome:
        """Greedy local-view correction.

        Start from per-vertex nearest local codewords, then repeatedly scan
        vertices in ascending order and apply the best strictly-improving
        single-vertex replacement, restarting the scan after each change.
        """
        X, r = self.X, self.r
        n = X.n_vertices
        wgrid = self.start_views(f)
        disagree = self._edge_disagreements(wgrid)
        delta = int(disagree.sum())
        delta0 = delta
        trace = [delta]
        iterations = 0
        budget = delta0 if max_iterations is None else max_iterations

        incident = X.edge_at                        # (2r, n)
        # A replacement at g only changes evaluations at g and its
        # neighbours, so caching clean vertices keeps the ascending-scan /
        # restart schedule while skipping untouched re-evaluations.
        dirty = np.ones(n, dtype=bool)
        cached_gain = np.zeros(n, dtype=np.int64)   # best improvement, <= 0 ok
        cached_best = np.zeros(n, dtype=np.int64)
        while delta > 0:
            improved = False
            for g in np.nonzero(dirty | (cached_gain < 0))[0]:
                g = int(g)
                if dirty[g]:
                    current = int(disagree[incident[:, g]].sum())
                    if current == 0:
                        cached_gain[g] = 0
                        dirty[g] = False
                        continue
                    cands = self._pattern_rows[self._pattern_of[g]]
                    deltas = self._local_delta(wgrid, g, cands)
                    best = int(np.argmin(deltas))
                    cached_gain[g] = int(deltas[best]) - current
                    cached_best[g] = best
                    dirty[g] = False
                if cached_gain[g] >= 0:
                    continue
                cands = self._pattern_rows[self._pattern_of[g]]
                wgrid[:, g, :] = cands[cached_best[g]].reshape(r, r)
                # refresh only the incident edges and mark the neighbourhood
                for lbl in range(X.n_labels):
                    e = int(incident[lbl, g])
                    disagree[e] = self._edge_view_differs(wgrid, e)
                    dirty[int(X.vert_image[lbl, g])] = True
                dirty[g] = True
                delta += int(cached_gain[g])
                iterations += 1
                trace.append(delta)
                improved = True
                break
            if not improved:
                break
            if iterations > budget:
                raise AssertionError(
                    f"greedy loop exceeded its certified budget {budget}")
            if iterations % full_rescan_every == 0:
                fresh = self._edge_disagreements(wgrid)
                assert int(fresh.sum()) == delta, "incremental Delta drifted"
                disagree = fresh

        fresh = self._edge_disagreements(wgrid)
        assert int(fresh.sum()) == delta, "incremental Delta drifted"

        if delta > 0:
            return DecodeOutcome(
                kind="far", word=None, iterations=iterations,
                delta_initial=delta0, delta_final=delta, delta_trace=trace,
                disputed_edges=np.nonzero(fresh)[0])
        rep = X.square_rep
        F = wgrid[rep[:, 0], rep[:, 1], rep[:, 2]]
        if not (F[self._grid] == wgrid).all():
            raise AssertionError("zero-Delta views are not globally consistent")
        word = BitVector(F)
        if self.code is not None and not self.code.contains(word):
            raise AssertionError("decoder output fails the parity checks")
        if not self.accepts_everywhere(word):
            raise AssertionError("decoder output rejected by the tester")
        return DecodeOutcome(
            kind="codeword", word=word, iterations=iterations,
            delta_initial=delta0, delta_final=0, delta_trace=trace)

    def _edge_view_differs(self, wgrid: np.ndarray, e: int) -> bool:
        X = self.X
        t, pos, g = (int(x) for x in X.edge_rep[e])
        if t == 0:
            ag = int(X.left_perms[pos, g])
            return bool((wgrid[pos, g, :] !=
                         wgrid[int(X.a_inv_pos[pos]), ag, :]).any())
        gb = int(X.right_perms[pos, g])
        return bool((wgrid[:, g, pos] !=
                     wgrid[:, gb, int(X.b_inv_pos[pos])]).any())


class LocalAssignment:
    """A per-vertex collection of local codewords W = (W_g).

    Stored as the (a, g, b) grid of each vertex's opinion on its squares;
    validity (every W_g fiber-constant and in the local tensor code) and the
    disagreement count Delta(W) are recomputed from scratch here, each in
    one whole-array pass, so this view suits diagnostics and hand-built
    configurations rather than the decoder's hot loop.
    """

    def __init__(self, tester: SquareCodeTester, wgrid: np.ndarray):
        self.tester = tester
        self.wgrid = np.asarray(wgrid, dtype=np.uint8)
        if self.wgrid.shape != tester._grid.shape:
            raise ValueError("wgrid shape must match the (a, g, b) slot grid")
        invalid = np.flatnonzero(~tester.valid_views(self.wgrid))
        if invalid.size:
            raise ValueError(f"W_{invalid[0]} is not a valid local codeword")

    @classmethod
    def from_nearest(cls, tester: SquareCodeTester, f) -> "LocalAssignment":
        """The decoder's start state: per-vertex nearest local codewords."""
        return cls(tester, tester.start_views(f))

    @classmethod
    def from_vertex_words(cls, tester: SquareCodeTester, words) -> "LocalAssignment":
        """Build from one r x r grid per vertex (e.g. codewords glued across
        a cut, the construction that exhibits far-but-locally-valid states)."""
        wgrid = np.stack([np.asarray(words[g], dtype=np.uint8).reshape(
            tester.r, tester.r) for g in range(tester.X.n_vertices)], axis=1)
        return cls(tester, wgrid)

    def disputed_edges(self) -> np.ndarray:
        return np.nonzero(self.tester._edge_disagreements(self.wgrid))[0]

    def delta(self) -> int:
        return int(self.tester._edge_disagreements(self.wgrid).sum())


# ---------------------------------------------------------------------------
# Counting diagnostics on a dispute set R
# ---------------------------------------------------------------------------


def dispute_counts(X: CayleyComplex, R) -> dict:
    """The n1 / n_par / n2 / n2' counts of the decoder analysis.

    R is an edge id array or boolean mask.  Returns per-vertex and per-edge
    integer arrays; identities against the edge operators:
    n_par(e) = r * Mpar 1_R(e) and n2(e) = 8 r^2 * M 1_R(e).
    """
    mask = np.zeros(X.n_edges, dtype=np.int64)
    R = np.asarray(R)
    if R.dtype == bool:
        mask[np.nonzero(R)[0]] = 1
    elif R.size:
        mask[R] = 1

    n1_v = mask[X.edge_at].sum(axis=0)                        # (n,)
    u, v = X.edge_endpoint_arrays()
    n1_e = n1_v[u] + n1_v[v]

    par = parallel_neighbor_table(X)
    npar_e = mask[par].sum(axis=1)

    n2_v = n1_v[X.vert_image].sum(axis=0)
    n2_e = n2_v[u] + n2_v[v]

    left_labels = np.nonzero(X.label_type == 0)[0]
    right_labels = np.nonzero(X.label_type == 1)[0]
    n1_left = mask[X.edge_at[left_labels]].sum(axis=0)
    n1_right = mask[X.edge_at[right_labels]].sum(axis=0)
    n2p_v = (n1_right[X.vert_image[left_labels]].sum(axis=0)
             + n1_left[X.vert_image[right_labels]].sum(axis=0))

    return {
        "n1_vertex": n1_v, "n1_edge": n1_e, "npar_edge": npar_e,
        "n2_vertex": n2_v, "n2_edge": n2_e, "n2prime_vertex": n2p_v,
    }


def local_counts(X: CayleyComplex, R, e: int) -> dict:
    """The counts at one edge: n1(e), n_par(e), n2(e) and n2' per endpoint."""
    counts = dispute_counts(X, R)
    u, v = X.edge_endpoints(e)
    return {
        "n1": int(counts["n1_edge"][e]),
        "npar": int(counts["npar_edge"][e]),
        "n2": int(counts["n2_edge"][e]),
        "n2prime": {u: int(counts["n2prime_vertex"][u]),
                    v: int(counts["n2prime_vertex"][v])},
    }


def check_far_diagnostics(X: CayleyComplex, outcome: DecodeOutcome,
                          delta1_num: int, delta1_den: int,
                          sigma1_num: int | None = None,
                          sigma1_den: int | None = None) -> dict:
    """Assert the dispute-edge and link inequalities on a far outcome.

    delta1 and sigma1 are passed as exact fractions so the inequalities are
    checked in integer arithmetic: on every disputed edge
    n_par(e) + n1(e) >= delta1 * r, and at every vertex the link inequality
    n1(g)/2r <= 2 sigma1^-1 n2'(g)/2r^2, i.e. sigma1 * r * n1(g) <= 2 n2'(g).
    """
    if outcome.kind != "far":
        raise ValueError("diagnostics only apply to far outcomes")
    R = outcome.disputed_edges
    counts = dispute_counts(X, R)
    r = X.nA
    lhs = (counts["npar_edge"][R] + counts["n1_edge"][R]) * delta1_den
    edge_ok = bool((lhs >= delta1_num * r).all())
    rec = {"dispute_edge_bound_holds": edge_ok, "n_disputed": int(len(R))}
    if sigma1_num is not None:
        link_lhs = sigma1_num * r * counts["n1_vertex"]
        link_rhs = 2 * sigma1_den * counts["n2prime_vertex"]
        rec["link_bound_holds"] = bool((link_lhs <= link_rhs).all())
    return rec


# ---------------------------------------------------------------------------
# Testability experiments
# ---------------------------------------------------------------------------


def random_error(rng: np.random.Generator, n: int, w: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.uint8)
    e[rng.choice(n, size=w, replace=False)] = 1
    return e


def _trial_word(tester: SquareCodeTester, code: LinearCode, seed: int,
                index: int, weight: int) -> tuple[np.ndarray, float]:
    """Trial `index`'s word c + e, wt(e) = weight, from its own RNG stream
    (seed, index), and its rejection probability D."""
    rng = np.random.default_rng([seed, index])
    c = code.random_codeword(rng)
    f_bits = c.to_bits() ^ random_error(rng, code.n, weight)
    return f_bits, tester.reject_probability(f_bits)


def _run_trials(trial, trials: int, workers: int) -> list[dict]:
    """[trial(i) for i in range(trials)], on `workers` threads when > 1;
    each trial seeds its own RNG, so the rows never depend on `workers`."""
    if workers > 1 and trials:
        from concurrent.futures import ThreadPoolExecutor   # not at start-up

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(trial, range(trials)))
    return [trial(i) for i in range(trials)]


def kappa_trial(tester: SquareCodeTester, code: LinearCode, seed: int,
                trial_index: int, weight: int, certified_radius: float) -> dict:
    """One corruption trial: f = c + e with wt(e) = weight.

    The trial is certified when weight < certified_radius / 2, in which
    case dist(f, C) = weight / |S| exactly and the trial contributes to the
    empirical kappa.
    """
    f_bits, D = _trial_word(tester, code, seed, trial_index, weight)
    in_code = tester.accepts_everywhere(f_bits)
    if weight > 0 and not in_code:
        assert D > 0, "D(f) = 0 must certify membership"
    certified = weight > 0 and weight < certified_radius / 2
    return {
        "trial": trial_index,
        "weight": weight,
        "D": D,
        "kappa_hat": (D * code.n / weight) if weight else float("nan"),
        "certified": bool(certified),
        "in_code": bool(in_code),
    }


def kappa_experiment(tester: SquareCodeTester, code: LinearCode,
                     params: TesterParams, trials: int,
                     weights: tuple[int, int], seed: int,
                     workers: int = 1) -> dict:
    """Empirical testability: min over certified trials of D(f)|S|/wt(e).

    Uses the exact code distance for the certification radius when the
    exhaustive oracle fits the budget, otherwise the square-code distance
    proposition bound (report marked bound-relative).
    """
    lo, hi = weights
    if not 1 <= lo <= hi <= code.n:
        raise ValueError(f"weight range {weights} invalid for length {code.n}")
    try:
        radius = float(code.distance_exact())
        radius_kind = "exact"
    except (DimensionBudgetError, ValueError):
        radius = 0.25 * params.delta1 ** 2 * (params.delta1 - params.lam) * code.n
        radius = max(radius, 0.0)
        radius_kind = "bound-relative"
    wlist = [lo + (i % (hi - lo + 1)) for i in range(trials)]
    rows = _run_trials(
        lambda i: kappa_trial(tester, code, seed, i, wlist[i], radius),
        trials, workers)

    certified = [row["kappa_hat"] for row in rows if row["certified"]]
    kappa_hat = min(certified) if certified else None
    report = {
        "trials": trials,
        "weights": [lo, hi],
        "seed": seed,
        "radius": radius,
        "radius_kind": radius_kind,
        "kappa_hat": kappa_hat,
        "n_certified": len(certified),
        "tester": params.to_dict(),
        "rows": rows,
    }
    if params.hypotheses_hold and kappa_hat is not None:
        assert kappa_hat >= params.kappa_proof - 1e-12, (
            f"empirical kappa {kappa_hat} below the proof bound {params.kappa_proof}")
    return report


def decode_trial(tester: SquareCodeTester, code: LinearCode, seed: int,
                 index: int, weights: tuple[int, int]) -> dict:
    """One decode trial on f = c + e, wt(e) cycling through the weight
    range, and whether the outcome meets the decoder contract."""
    lo, hi = weights
    w = int(lo + (index % (hi - lo + 1)))
    f_bits, D = _trial_word(tester, code, seed, index, w)
    out = tester.decode(f_bits)
    ok = out.delta_initial <= 2 * D * tester.X.n_edges + 1e-9
    ok &= out.iterations <= max(out.delta_initial, 0)
    dist = float("nan")
    if out.kind == "codeword":
        dist = float((out.word.to_bits() != f_bits).sum()) / code.n
        ok &= dist <= (4 + 8 * tester.r) * D + 1e-9
    else:
        diag = check_far_diagnostics(
            tester.X, out, tester.C1.distance_exact(), tester.C1.n)
        ok &= diag["dispute_edge_bound_holds"]
    return {
        "trial": index, "weight": w, "D": D, "outcome": out.kind,
        "iterations": out.iterations, "delta_initial": out.delta_initial,
        "dist_to_output": dist, "dist_bound": (4 + 8 * tester.r) * D,
        "contract_ok": bool(ok),
    }


def decode_experiment(tester: SquareCodeTester, code: LinearCode, trials: int,
                      weights: tuple[int, int], seed: int,
                      workers: int = 1) -> dict:
    """Seeded decode trials and their summary: far outcomes and whether
    every trial met the decoder contract."""
    rows = _run_trials(lambda i: decode_trial(tester, code, seed, i, weights),
                       trials, workers)
    return {
        "trials": trials, "weights": list(weights), "seed": seed,
        "n_far": sum(row["outcome"] == "far" for row in rows),
        "all_contracts_ok": all(row["contract_ok"] for row in rows),
        "rows": rows,
    }
