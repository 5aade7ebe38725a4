"""Local tester and greedy decoder for square-complex codes.

The tester picks a uniform random vertex g and accepts a word f on the
squares iff the local view f|_{S(g)}, pulled back through the labelling
map, lies in the tensor square of the base code, i.e. iff every row and
column of the view lies in C1.  Each row and column is packed into a line
code, 8 coordinates a byte, whose syndrome is the XOR of one lookup per byte
in 256-entry tables of C1's syndromes built once per tester.
reject_probability computes the exact rejection probability D(f).

The decoder keeps one local codeword W_g per vertex (fiber-constant on the
labelling map, so degenerate vertices where TNC fails are handled), counts
disagreeing edges Delta(W), and greedily replaces single-vertex views while
any replacement strictly reduces Delta.  Termination with Delta = 0 yields
a codeword; otherwise the word is declared far and the final dispute set
supports the counting diagnostics n1, n_par, n2, n2'.  The state is one
candidate id per vertex, whose rows and columns carry line ids; each edge's
two line slots are computed once per tester, so Delta is one gather of both
ends and a compare.  All vertices share one candidate table, and a
per-pattern penalty bars the candidates that are not fiber-constant at a
vertex.  The start state is every vertex's nearest local codeword, one
blocked array pass: a lookup of each view on an information set of the
local code, and a distance scan over the views that missed.  Its first
evaluation covers only the endpoints of its disputed edges; every other
vertex has nothing to gain.

Both read a word f mod 2, and only where its support reaches: a vertex
whose view misses supp f accepts and keeps candidate 0, the zero word.  So
the tester and the start state run at the corners of the set squares, and
Delta and the final checks at the vertices off candidate 0 and their edges.
A set that reaches a quarter of the vertices is every vertex, or every
edge, which is cheaper than finding it; the passes are the same.

kappa_experiment and decode_experiment run seeded trials serially, one
RNG stream per (seed, trial index), so each row is its trial run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import LinearCode, check_square_distance_bound, tensor_code
from .complexes import CayleyComplex
from .f2core import BitVector, DimensionBudgetError, _pack_bits, _xor_table
from .spectral import parallel_neighbor_table

NEAREST_SEARCH_MAX_DIM = 20
# entries in one temporary of the decoder tables and the nearest-codeword
# pass (8 MB of float64), so that large instances add no peak memory
DECODE_BLOCK = 1 << 20


@dataclass
class TesterParams:
    """Derived tester constants for one instance: the bounds are floats,
    the hypotheses are decided on the exact values of the three numbers."""

    __test__ = False        # not a pytest class despite the name

    r: int
    delta1: Fraction | float
    sigma1: Fraction | float
    lam: float

    def _kappa(self, c: int, number=float):
        s, d, lam = map(number, (self.sigma1, self.delta1, self.lam))
        return (s * d / (c + s) - lam) / (4 * self.r)

    @property
    def query_count(self) -> int:
        """r^2; an upper bound, attained exactly at TNC vertices."""
        return self.r * self.r

    @property
    def kappa_proof(self) -> float:
        """(1/4r)(sigma1*delta1/(16+sigma1) - lambda), the proof-consistent bound."""
        return self._kappa(16)

    @property
    def kappa_statement(self) -> float:
        """Laxer variant with 8+sigma1 in the denominator; reported alongside
        kappa_proof for comparison but never asserted."""
        return self._kappa(8)

    @property
    def hypotheses_hold(self) -> bool:
        """lambda < sigma1*delta1/(16+sigma1), exactly: kappa_proof > 0."""
        return self._kappa(16, Fraction) > 0

    def to_dict(self) -> dict:
        return {
            "r": self.r, "delta1": float(self.delta1), "sigma1": float(self.sigma1),
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
    delta_trace: list[int]
    disputed_edges: np.ndarray | None = None


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
        self._hcols = _pack_bits(C1.parity.to_array().T)   # (r, words): bit j = check j
        self._syn_tables = _xor_table(np.pad(     # (byte, its 256 values, words)
            self._hcols, ((0, -self.r % 8), (0, 0))).reshape(-1, 8, self._hcols.shape[1]))
        i = np.arange(self.r)        # coordinate i is bit i % 8 of byte i // 8
        self._byte_bits = ((i // 8 == np.arange(len(self._syn_tables))[:, None])
                           << i % 8).astype(np.uint8)
        self._grid = X.square_id                     # (r, n, r)
        lbl, g = X.edge_rep_slots()     # each edge's line slots l*n + g, l^-1*n + g^l
        self._edge_slots = np.stack([lbl * X.n_vertices + g,
                                     X.label_inv[lbl] * X.n_vertices + X.vert_image[lbl, g]])
        self._edge_slots.flags.writeable = False
        self._pattern_of = None      # set last by _ensure_tables

    # -- tester ------------------------------------------------------------

    def _word_bits(self, f) -> np.ndarray:
        """The low bits of a word of |S| entries given as a BitVector or an
        array; a ValueError on any other length."""
        bits = (f.to_bits() if isinstance(f, BitVector) else np.asarray(f, np.uint8)) & 1
        if bits.shape[0] != self.n_squares:
            raise ValueError(f"word length {bits.shape[0]} != |S| = {self.n_squares}")
        return bits

    def _reached(self, bits: np.ndarray) -> np.ndarray:
        """The sorted vertices whose views meet the support of the 0/1 word
        bits, or every vertex once 4 |supp| >= |V|: a square lies in the
        views of at most 4 vertices, and the search would cost more than the
        vertices it leaves out."""
        if 4 * np.count_nonzero(bits) >= self.X.n_vertices:
            return np.arange(self.X.n_vertices)
        # nonzero on a bool view is 10x faster than on uint8
        return self.X.vertices_of_squares(np.flatnonzero(bits.view(bool)))

    def reject_vector(self, f) -> np.ndarray:
        """Boolean per-vertex rejection of f read mod 2, tested at the
        vertices _reached gives; a zero view accepts."""
        f_bits = self._word_bits(f)
        verts = self._reached(f_bits)
        out = np.zeros(self.X.n_vertices, dtype=bool)
        out[verts] = self._rejects(f_bits[self._grid.take(verts, axis=1)])
        return out

    def _line_codes(self, grid: np.ndarray) -> np.ndarray:
        """(byte, line, vertex) codes of the 0/1 (a, vertex, b) grid: rows,
        then columns; coordinate i is bit i % 8 of byte i // 8."""
        w = self._byte_bits
        return np.concatenate([np.einsum("avb,jb->jav", grid, w),
                               np.einsum("avb,ja->jbv", grid, w)], axis=1)

    def _rejects(self, views: np.ndarray) -> np.ndarray:
        """Boolean per vertex: some row or column of its view in the 0/1
        (a, vertex, b) grid views fails a check of C1: its syndrome, the XOR
        of one table lookup per byte of its line code, is not 0."""
        codes = self._line_codes(views)
        syn = self._syn_tables[0].take(codes[0], axis=0)
        for table, byte in zip(self._syn_tables[1:], codes[1:]):
            syn ^= table.take(byte, axis=0)
        return syn.any(axis=(0, 2))

    def reject_probability(self, f) -> float:
        """Exact D(f): the rejecting share of all vertices, tested where
        supp f reaches."""
        return float(self.reject_vector(f).sum()) / self.X.n_vertices

    def accepts_everywhere(self, f) -> bool:
        return not self.reject_vector(f).any()

    # -- decoder tables -----------------------------------------------------

    def _ensure_tables(self):
        """Candidate table, line table, per-pattern masks and penalties, and
        the information-set key.

        A vertex's fiber pattern is key[j] = the first slot i of its r x r
        view that carries the same square as slot j.  Vertices with equal
        keys share their distinct-square positions (first slots, _first) and
        their fiber-constant codewords.  The candidates are the codewords
        fiber-constant for some pattern, in lexicographic order; _outside[p]
        is 0 on pattern p's and r^2 + 2r + 1 on the others, so a barred one,
        scoring at least -r^2, always loses to the zero word, which every
        pattern holds (score 0 in the distance pass, at most 2r in Delta's).
        A candidate's lines are its r rows and r columns; a line id names a
        distinct bit line, so two views agree on an edge iff the edge's two
        lines have equal ids.
        """
        if self._pattern_of is not None:
            return
        k0 = self.C0.k
        if k0 > NEAREST_SEARCH_MAX_DIM:
            raise DimensionBudgetError(
                f"local code dimension k1^2 = {k0} exceeds the nearest-codeword "
                f"search budget {NEAREST_SEARCH_MAX_DIM}; the greedy loop needs "
                f"an enumerable local code")
        words = self.C0.codewords()                       # (2^k0, r^2)
        words = words[np.lexsort(words.T[::-1])]          # lexicographic
        n, r, r2 = self.X.n_vertices, self.r, self.r * self.r
        # a stable sort of each view's square ids puts equal ones in runs,
        # each led by its first slot; every slot takes its run's leader
        keys = np.empty((n, r2), dtype=np.min_scalar_type(r2 - 1))
        step = max(1, DECODE_BLOCK // (r2 * r2))
        for lo in range(0, n, step):
            flat = self._grid[:, lo:lo + step, :].transpose(1, 0, 2).reshape(-1, r2)
            order = flat.argsort(axis=1, kind="stable").astype(keys.dtype)
            ids = np.take_along_axis(flat, order, axis=1)
            lead = np.arange(r2) * np.insert(ids[:, 1:] != ids[:, :-1], 0, True, axis=1)
            np.put_along_axis(keys[lo:lo + step], order, np.take_along_axis(
                order, np.maximum.accumulate(lead, axis=1), axis=1), axis=1)
        # one bytes object per key row: np.unique(axis=0) sorts ~100x slower
        key_rows = keys.view(np.dtype((np.void, keys.itemsize * r2))).ravel()
        _, first_vertex, pattern_of = np.unique(
            key_rows, return_index=True, return_inverse=True)
        keys = keys[first_vertex].astype(np.intp)         # (pattern, r^2)
        member = np.stack([(words[:, key] == words).all(axis=1) for key in keys])
        kept = member.any(axis=0)
        cand = words[kept]
        # int16 holds r^2 + 4r + 1 up to r = 179, past which one key block is > 1 GB
        outside = np.where(member[:, kept], 0, r2 + 2 * r + 1).astype(np.int16)
        # candidate 0 is the zero word, held at every pattern: a vertex
        # whose view misses supp f keeps it, and a zero view accepts
        assert not cand[0].any() and not outside[:, 0].any()

        # lines 0..r-1 are the rows, r..2r-1 the columns, as the labels
        grids = cand.reshape(-1, r, r)
        lines = np.concatenate([grids, grids.transpose(0, 2, 1)], axis=1)
        distinct, line_ids = np.unique(
            lines.reshape(-1, r).view(np.dtype((np.void, r))), return_inverse=True)
        line_table = line_ids.reshape(len(cand), 2 * r).T.astype(
            np.min_scalar_type(len(distinct) - 1), order="C")

        # an information set of C0: its codewords differ on these slots;
        # keys of the codewords no vertex holds name the zero word, which
        # their views never equal
        key_slots = self.C0.information_set
        key_weights = np.left_shift(1, np.arange(k0, dtype=np.int64))
        key_table = np.zeros(1 << k0, dtype=np.int32)
        key_table[cand[:, key_slots] @ key_weights] = np.arange(len(cand))

        self._cand_flat = cand
        self._cand_t = cand.T.astype(np.float64)
        self._lines = line_table                  # (2r, candidate)
        self._first = (keys == np.arange(r2)).astype(np.float64)
        self._outside = outside
        self._key = (key_slots, key_weights, key_table)
        self._pattern_of = pattern_of.reshape(-1)   # last: tables built

    def _nearest(self, f_bits: np.ndarray, verts: np.ndarray) -> np.ndarray:
        """Candidate ids of the nearest local codewords at verts.

        A view's bits on an information set of C0 name one codeword; a view
        equal to it is a fiber-constant candidate at distance 0, and no
        other candidate is.  The other views are scanned: the distance of a
        0/1 view v to a candidate c on the distinct squares (first slots) is
        wt(v) + wt(c) - 2<v, c> there; dropping wt(v), it is
        (first - 2 first v) . c, exact in float64 at these sizes, plus the
        pattern's penalty off its own candidates.  argmin keeps the first
        (lexicographically least) minimum.
        """
        slots, weights, table = self._key
        r2 = self.r * self.r
        out = np.empty(len(verts), dtype=np.int64)
        step = max(1, DECODE_BLOCK // max(len(self._cand_flat), r2))
        for lo in range(0, len(verts), step):
            v = verts[lo:lo + step]
            views = f_bits[self._grid.take(v, axis=1)].transpose(1, 0, 2).reshape(-1, r2)
            ci = table[views[:, slots] @ weights]
            miss = np.flatnonzero((self._cand_flat[ci] != views).any(axis=1))
            p = self._pattern_of[v[miss]]
            first = self._first[p]
            dists = (first - 2 * first * views[miss]) @ self._cand_t + self._outside[p]
            ci[miss] = dists.argmin(axis=1)
            out[lo:lo + step] = ci
        return out

    def nearest_local_codeword(self, f, g: int) -> int:
        """Index into the candidate table of the closest fiber-constant
        tensor codeword to f's view at g, f read mod 2, distance on distinct
        squares, ties to the lexicographically least grid."""
        self._ensure_tables()
        return int(self._nearest(self._word_bits(f), np.array([g]))[0])

    def nearest_local_codewords(self, f) -> np.ndarray:
        """nearest_local_codeword at every vertex: candidate 0, the zero
        word, where f's view is zero, and one blocked pass over the vertices
        that supp f reaches."""
        self._ensure_tables()
        f_bits = self._word_bits(f)
        verts = self._reached(f_bits)
        out = np.zeros(self.X.n_vertices, dtype=np.int64)
        out[verts] = self._nearest(f_bits, verts)
        return out

    def _grid_of(self, ci: np.ndarray) -> np.ndarray:
        """The (a, g, b) grid of the candidates ci, one per vertex."""
        return self._cand_flat.reshape(-1, self.r, self.r).transpose(1, 0, 2).take(ci, axis=1)

    # -- decoder ------------------------------------------------------------

    def _off_zero(self, ci: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """V1, the sorted vertices whose candidate is not 0, the zero word,
        and the sorted edges at them, where two views can differ; every
        vertex and edge once 4 |V1| >= |V|."""
        v1 = np.flatnonzero(ci)
        if 4 * len(v1) >= self.X.n_vertices:
            return np.arange(self.X.n_vertices), np.arange(self.X.n_edges)
        return v1, np.unique(self.X.edge_at[:, v1])

    def _disputed(self, lines: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """The edges, of the sorted ids `edges`, whose line at one endpoint
        differs from their line at the other.  lines[..., l, g] is vertex
        g's line of label l (row l of its view, column l - r for l >= r): an
        id, or a line code's bytes."""
        ends = lines.reshape(-1, 2 * self.r * self.X.n_vertices).take(
            self._edge_slots.take(edges, axis=1), axis=1)         # (..., 2, edge)
        return edges[(ends[:, 0] != ends[:, 1]).any(axis=0)]

    def _evaluate(self, ci: np.ndarray, verts: np.ndarray,
                  gain: np.ndarray, best: np.ndarray) -> None:
        """Set gain[v] and best[v] at verts from the state ci: the least
        change of Delta over v's candidates and the first candidate that
        reaches it, or gain 0 where no edge at v is disputed."""
        lines = self._lines
        nbr = lines[self.X.label_inv, ci[self.X.vert_image[:, verts].T]]   # (m, 2r)
        current = (lines[:, ci[verts]].T != nbr).sum(axis=1)
        gain[verts] = 0
        hot = np.flatnonzero(current)
        step = max(1, DECODE_BLOCK // lines.size)
        for lo in range(0, len(hot), step):
            h = hot[lo:lo + step]
            v = verts[h]
            # lines lead the candidates: summing over a short leading axis
            # is a few vector adds, not one tiny reduction per candidate
            mismatch = ((lines != nbr[h, :, None]).sum(axis=1, dtype=np.int16)
                        + self._outside[self._pattern_of[v]])
            k = mismatch.argmin(axis=1)
            gain[v] = mismatch[np.arange(len(h)), k] - current[h]
            best[v] = k

    def decode(self, f) -> DecodeOutcome:
        """Greedy local-view correction.

        The state is one candidate id per vertex, starting from the nearest
        local codewords.  Each step replaces the view of the least vertex
        whose best replacement strictly reduces Delta.  A step at g changes
        only the evaluations at g and its neighbours, so only those are
        recomputed; this is the ascending scan restarted after each change.

        Two zero words agree on their edge, so Delta and the final checks
        read only the edges and squares at the vertices off candidate 0.
        """
        X, n = self.X, self.X.n_vertices
        ci = self.nearest_local_codewords(f)
        disputed = self._disputed(self._lines[:, ci], self._off_zero(ci)[1])
        delta = delta0 = len(disputed)
        trace = [delta]
        iterations = 0
        gain = np.zeros(X.n_vertices, dtype=np.int64)
        best = np.zeros(X.n_vertices, dtype=np.int64)
        # a vertex with no disputed edge keeps gain 0, as _evaluate would set
        self._evaluate(ci, np.unique(self._edge_slots[:, disputed] % n), gain, best)
        while delta > 0:
            negative = np.flatnonzero(gain < 0)
            if not negative.size:
                break
            g = negative[0]
            ci[g] = best[g]
            delta += int(gain[g])
            iterations += 1
            trace.append(delta)
            if iterations > delta0:
                raise AssertionError(
                    f"greedy loop exceeded its certified budget {delta0}")
            if iterations % 64 == 0:
                recount = self._disputed(self._lines[:, ci], self._off_zero(ci)[1])
                assert len(recount) == delta, "incremental Delta drifted"
            self._evaluate(ci, np.append(X.vert_image[:, g], g), gain, best)

        # the fresh count on the line codes of the views; the zero word's are 0
        v1, edges = self._off_zero(ci)
        wgrid = self._grid_of(ci[v1])
        codes = np.zeros((len(self._syn_tables), 2 * self.r, n), dtype=np.uint8)
        codes[:, :, v1] = self._line_codes(wgrid)
        fresh = self._disputed(codes, edges)
        assert len(fresh) == delta, "incremental Delta drifted"

        if delta > 0:
            return DecodeOutcome(
                kind="far", word=None, iterations=iterations,
                delta_initial=delta0, delta_trace=trace,
                disputed_edges=fresh)
        # F from the views at V1, every other view being the zero word; the
        # views are consistent iff F's view is the candidate at V1 and zero
        # at the other vertices that supp F reaches
        squares = self._grid.take(v1, axis=1)
        F = np.zeros(self.n_squares, dtype=np.uint8)
        F[squares] = wgrid
        reached = self._reached(F)
        zero = reached[ci[reached] == 0]
        if not ((F[squares] == wgrid).all()
                and not F[self._grid.take(zero, axis=1)].any()):
            raise AssertionError("zero-Delta views are not globally consistent")
        word = BitVector(F)
        if self.code is not None and not self.code.contains(word):
            raise AssertionError("decoder output fails the parity checks")
        if not self.accepts_everywhere(word):
            raise AssertionError("decoder output rejected by the tester")
        return DecodeOutcome(
            kind="codeword", word=word, iterations=iterations,
            delta_initial=delta0, delta_trace=trace)


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
    lbl, u = X.edge_rep_slots()
    v = X.vert_image[lbl, u]
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


def _trial_draw(code: LinearCode, seed: int, index: int,
                weight: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial `index`'s draws from its own RNG stream (seed, index): the
    coefficients of its codeword c, then its error word e, wt(e) = weight."""
    rng = np.random.default_rng([seed, index])
    coeffs = rng.integers(0, 2, size=code.k)
    return coeffs, random_error(rng, code.n, weight)


def _trial_word(tester: SquareCodeTester, code: LinearCode, seed: int,
                index: int, weight: int) -> tuple[np.ndarray, int]:
    """Trial `index`'s word c + e and the number of vertices that reject it."""
    coeffs, e = _trial_draw(code, seed, index, weight)
    f_bits = BitVector._from_words(code._encode(coeffs == 1), code.n).to_bits() ^ e
    return f_bits, int(tester.reject_vector(f_bits).sum())


def _run_trials(trial, trials: int, weights: tuple[int, int], n: int) -> list[dict]:
    """[trial(i, w) for i in range(trials)], w cycling through the weight
    range (lo, hi), a ValueError unless 1 <= lo <= hi <= n."""
    lo, hi = weights
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"weight range {weights} invalid for length {n}")
    return [trial(i, lo + i % (hi - lo + 1)) for i in range(trials)]


def kappa_trial(tester: SquareCodeTester, code: LinearCode, seed: int,
                trial_index: int, weight: int, certified_radius: float) -> dict:
    """One corruption trial: f = c + e with wt(e) = weight.

    The tester is linear and accepts c, so f and e are rejected at the same
    vertices, and f is a codeword iff e is: e alone is tested, and re-encoded
    for membership.  The trial is certified when weight < certified_radius / 2,
    in which case dist(f, C) = weight / |S| exactly and the trial contributes
    to the empirical kappa.
    """
    e = _trial_draw(code, seed, trial_index, weight)[1]
    rejects = int(tester.reject_vector(e).sum())
    D = rejects / tester.X.n_vertices
    in_code = code.contains(BitVector(e))
    if not in_code:
        assert rejects > 0, "D(f) = 0 must certify membership"
    certified = weight < certified_radius / 2
    return {
        "trial": trial_index,
        "weight": weight,
        "D": D,
        "kappa_hat": D * code.n / weight,
        "certified": bool(certified),
        "in_code": bool(in_code),
    }


def kappa_experiment(tester: SquareCodeTester, code: LinearCode,
                     params: TesterParams, trials: int,
                     weights: tuple[int, int], seed: int) -> dict:
    """Empirical testability: min over certified trials of D(f)|S|/wt(e).

    Uses the exact code distance for the certification radius when the
    exhaustive oracle fits the budget, otherwise the square-code distance
    proposition bound of check_square_distance_bound, at least 0 (report
    marked bound-relative).
    """
    try:
        radius = float(code.distance_exact())
        radius_kind = "exact"
    except (DimensionBudgetError, ValueError):
        bound = check_square_distance_bound(code, params.delta1, params.lam)["bound"]
        radius = max(bound, 0.0)
        radius_kind = "bound-relative"
    rows = _run_trials(lambda i, w: kappa_trial(tester, code, seed, i, w, radius),
                       trials, weights, code.n)

    certified = [row["kappa_hat"] for row in rows if row["certified"]]
    kappa_hat = min(certified) if certified else None
    report = {
        "trials": trials,
        "weights": list(weights),
        "seed": seed,
        "radius": radius,
        "radius_kind": radius_kind,
        "kappa_hat": kappa_hat,
        "n_certified": len(certified),
        "tester": params.to_dict(),
        "rows": rows,
    }
    if params.hypotheses_hold and kappa_hat is not None:
        # exact: kappa_hat = rej |S| / (|V| wt), rej = D |V| rounded, against
        # the bound at the exact values of params
        n = tester.X.n_vertices
        exact = min(Fraction(round(row["D"] * n) * code.n, n * row["weight"])
                    for row in rows if row["certified"])
        bound = params._kappa(16, Fraction)
        assert exact >= bound, (
            f"empirical kappa {kappa_hat} below the proof bound {params.kappa_proof}")
    return report


def decode_trial(tester: SquareCodeTester, code: LinearCode, seed: int,
                 index: int, weight: int) -> dict:
    """One decode trial on f = c + e with wt(e) = weight, and whether the
    outcome meets the decoder contract.

    With rej the number of rejecting vertices, so D = rej / |V|, the
    contract is decided in integers: Delta_0 |V| <= 2 rej |E| and, for a
    codeword output w, wt(f - w) |V| <= (4 + 8r) rej |S|.
    """
    f_bits, rejects = _trial_word(tester, code, seed, index, weight)
    X = tester.X
    D = rejects / X.n_vertices
    out = tester.decode(f_bits)
    ok = out.delta_initial * X.n_vertices <= 2 * rejects * X.n_edges
    ok &= out.iterations <= out.delta_initial
    dist = float("nan")
    if out.kind == "codeword":
        wrong = int((out.word.to_bits() != f_bits).sum())
        dist = wrong / code.n
        ok &= wrong * X.n_vertices <= (4 + 8 * tester.r) * rejects * code.n
    else:
        diag = check_far_diagnostics(
            X, out, tester.C1.distance_exact(), tester.C1.n)
        ok &= diag["dispute_edge_bound_holds"]
    return {
        "trial": index, "weight": weight, "D": D, "outcome": out.kind,
        "iterations": out.iterations, "delta_initial": out.delta_initial,
        "dist_to_output": dist, "dist_bound": (4 + 8 * tester.r) * D,
        "contract_ok": bool(ok),
    }


def decode_experiment(tester: SquareCodeTester, code: LinearCode, trials: int,
                      weights: tuple[int, int], seed: int) -> dict:
    """Seeded decode trials and their summary: far outcomes and whether
    every trial met the decoder contract."""
    rows = _run_trials(lambda i, w: decode_trial(tester, code, seed, i, w),
                       trials, weights, code.n)
    return {
        "trials": trials, "weights": list(weights), "seed": seed,
        "n_far": sum(row["outcome"] == "far" for row in rows),
        "all_contracts_ok": all(row["contract_ok"] for row in rows),
        "rows": rows,
    }
