"""Brute-force oracles for agreement testability and uniform smoothness.

Agreement testability of a length-r code C compares pairs (f, g) of r x r
matrices where every row of f and every column of g lies in C: sigma(C) is
the worst-case ratio of their plain disagreement d(f,g) to the row/column
correction cost d_rc((f,g), C (x) C).  The oracles here search exactly,
so they only run at small budgets, and they return exact fractions:
sigma_exact scans one row-valid f per coset of C (x) C against every
column-valid g, rc_distance scans the whole tensor code.

Uniform smoothness: a d-LDPC code C is (alpha, beta, delta, d)-US when
every small erased set I extends to a set J, of size at most |I|/beta,
with the I-relaxed J-punctured code C(I,J) keeping normalized distance
delta.  verify_us checks this per I, either by exhaustive search over J or
constructively through the expander smoothing procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import f2core
from .codes import LinearCode, tensor_code
from .f2core import BitMatrix, BitVector, DimensionBudgetError

SIGMA_MAX_RK = 12
#: Entries of one (representative, w, g) block in sigma_exact (2 MB of uint8).
SIGMA_BLOCK = 1 << 21
RC_MAX_K0 = 20


# ---------------------------------------------------------------------------
# Row/column distances and d_rc
# ---------------------------------------------------------------------------


def _as_grid(x, r: int) -> np.ndarray:
    if isinstance(x, BitVector):
        x = x.to_bits()
    grid = np.asarray(x, dtype=np.uint8).reshape(r, r) & 1
    return grid


def plain_distance(f, g, r: int) -> Fraction:
    """d(f,g) = wt(f - g) / r^2."""
    return Fraction(int((_as_grid(f, r) ^ _as_grid(g, r)).sum()), r * r)


def row_distance(f, w, r: int) -> Fraction:
    fg, wg = _as_grid(f, r), _as_grid(w, r)
    return Fraction(int(((fg != wg).any(axis=1)).sum()), r)


def col_distance(g, w, r: int) -> Fraction:
    gg, wg = _as_grid(g, r), _as_grid(w, r)
    return Fraction(int(((gg != wg).any(axis=0)).sum()), r)


def _validate_pair(C1: LinearCode, f: np.ndarray, g: np.ndarray):
    r = C1.n
    for a in range(r):
        if not C1.contains(BitVector(f[a, :])):
            raise ValueError(f"row {a} of f is not a codeword")
        if not C1.contains(BitVector(g[:, a])):
            raise ValueError(f"column {a} of g is not a codeword")


def rc_distance(f, g, C1: LinearCode) -> dict:
    """Exact d, d_row, d_col and d_rc((f,g), C1 (x) C1) with the minimizer.

    f must have all rows in C1 and g all columns in C1; the minimization
    enumerates the tensor square, so k1^2 is budget-capped.
    """
    r = C1.n
    if C1.k * C1.k > RC_MAX_K0:
        raise DimensionBudgetError(
            f"tensor dimension {C1.k ** 2} exceeds the d_rc budget {RC_MAX_K0}")
    fg, gg = _as_grid(f, r), _as_grid(g, r)
    _validate_pair(C1, fg, gg)
    C0 = tensor_code(C1)
    best = None
    best_w = None
    for w in C0.codewords():
        s = row_distance(fg, w, r) + col_distance(gg, w, r)
        if best is None or s < best:
            best, best_w = s, w
    d_rc = best / 2
    rec = {
        "d": plain_distance(fg, gg, r),
        "d_rc": d_rc,
        "d_row": row_distance(fg, best_w, r),
        "d_col": col_distance(gg, best_w, r),
        "witness": best_w,
    }
    if rec["d"] != 0 and d_rc == 0:
        raise AssertionError("d_rc = 0 with f != g: implementation bug")
    # the pairwise form of sigma <= 2
    assert rec["d"] <= 2 * d_rc or rec["d"] == 0
    return rec


@dataclass
class SigmaResult:
    value: Fraction
    f: np.ndarray
    g: np.ndarray
    pairs_scanned: int

    def __float__(self) -> float:
        return float(self.value)


def _row_valid_matrices(C1: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """All matrices with every row in C1, as (count, r, r) bits plus an
    encoding of each row as a small int for fast row comparisons."""
    r = C1.n
    words = np.stack([w.to_bits() for w in C1.codewords()])     # (2^k1, r)
    k = words.shape[0]
    idx = np.indices((k,) * r).reshape(r, -1).T                 # (k^r, r)
    mats = words[idx]                                           # (k^r, r, r)
    pows = (1 << np.arange(r)).astype(np.int64)
    row_codes = mats @ pows                                      # (k^r, r)
    return mats, row_codes


def sigma_exact(C1: LinearCode) -> SigmaResult:
    """sigma(C1), exactly, scanning one row-valid f per coset of C1 (x) C1.

    For c in C0 = C1 (x) C1 the map (f, g) -> (f + c, g + c) keeps both
    d(f,g) and d_rc, and g -> g + c permutes the column-valid matrices, so
    every f in a coset f + C0 reaches the same ratios.  Only the first f of
    each coset (in the order of _row_valid_matrices) is scanned, against
    every column-valid g; the first minimizing f of a full scan is such a
    representative, so the value and the minimizing pair are those of the
    full enumeration.

    Budget: r * k1 <= 12 (the two spaces have 2^(r k1) elements each).  The
    row and column mismatch counts, at most r, and their sums, at most 2r,
    are held in uint8, and d_col is summed one column at a time.  Pairs
    with f = g are excluded; d_rc = 0 for f != g is impossible and treated
    as an error.
    """
    r = C1.n
    if r * C1.k > SIGMA_MAX_RK:
        raise DimensionBudgetError(
            f"r*k1 = {r * C1.k} exceeds the sigma budget {SIGMA_MAX_RK}")
    if C1.k == 0:
        raise ValueError("sigma undefined for the zero code")
    F, F_rows = _row_valid_matrices(C1)
    G = np.swapaxes(F, 1, 2).copy()               # column-valid matrices
    C0 = tensor_code(C1)
    W = np.stack([w.to_bits().reshape(r, r) for w in C0.codewords()])
    pows = (1 << np.arange(r)).astype(np.int64)
    W_rows = W.reshape(-1, r, r) @ pows                          # (|W|, r)
    W_cols = np.swapaxes(W, 1, 2) @ pows
    G_cols = np.swapaxes(G, 1, 2) @ pows                         # (|G|, r)
    F_flat = F.reshape(len(F), -1).astype(np.float64)
    G_flat = G.reshape(len(G), -1).astype(np.float64)
    F_wt, G_wt = F_flat.sum(axis=1), G_flat.sum(axis=1)

    # f and f' share a coset of C0 iff they share a syndrome under C0's
    # parity checks; keep the first f of each syndrome class, in order
    H0 = C0.parity.to_array().T.astype(np.float64)
    syndromes = np.packbits((F_flat @ H0) % 2 != 0, axis=1)
    _, first = np.unique(syndromes, axis=0, return_index=True)
    reps = np.sort(first)

    # d_row(f,w) and d_col(g,w) as integer row/column mismatch counts
    D_row = (F_rows[reps][:, :, None] != W_rows.T[None]).sum(axis=1, dtype=np.uint8)
    D_col = np.zeros((len(W), len(G)), dtype=np.uint8)              # (|W|, |G|)
    for b in range(r):
        D_col += W_cols[:, b, None] != G_cols[:, b]

    # scan the representatives in order, a block of them at a time; the
    # block keeps the (rep, w, g) temporary under SIGMA_BLOCK entries
    block = max(1, SIGMA_BLOCK // D_col.size)
    best = None
    best_pair = None
    pairs = 0
    for start in range(0, len(reps), block):
        idx = reps[start:start + block]
        minsum = (D_row[start:start + block, :, None] + D_col[None]).min(axis=1)
        # wt(f - g) = wt(f) + wt(g) - 2 <f, g>, exact in float64
        wt = F_wt[idx, None] + G_wt[None] - 2 * (F_flat[idx] @ G_flat.T)
        neq = wt != 0
        pairs += int(neq.sum())
        if (minsum[neq] == 0).any():
            raise AssertionError("d_rc = 0 with f != g: implementation bug")
        # ratio = (wt/r^2) / (minsum/2r) = 2 wt / (r * minsum); the first
        # minimum in (rep, g) order is the one a pair-by-pair scan keeps
        ratios = np.full(wt.shape, np.inf)
        np.divide(2 * wt, r * minsum.astype(np.float64), out=ratios, where=neq)
        t, j = np.unravel_index(np.argmin(ratios), ratios.shape)
        cand = Fraction(2 * int(wt[t, j]), r * int(minsum[t, j]))
        if best is None or cand < best:
            best = cand
            best_pair = (F[idx[t]].copy(), G[j].copy())
    if best is None:
        raise AssertionError("no valid pair with f != g exists")
    assert best <= 2, "sigma must never exceed 2"
    return SigmaResult(best, best_pair[0], best_pair[1], pairs)


# ---------------------------------------------------------------------------
# Punctured codes C(I, J) and uniform smoothness
# ---------------------------------------------------------------------------


def low_weight_dual_words(C: LinearCode, d: int) -> list[BitVector]:
    """All dual codewords of weight <= d, by exhaustive dual enumeration."""
    dual_dim = C.n - C.k
    if dual_dim > f2core.MAX_ENUM_DIMENSION:
        raise DimensionBudgetError(
            f"dual dimension {dual_dim} exceeds the enumeration budget")
    if dual_dim == 0:
        return []
    words = f2core._xor_table(C.parity.words)
    wts = np.bitwise_count(words).sum(axis=1)
    keep = np.nonzero((wts <= d) & (wts > 0))[0]
    return [BitVector._from_words(words[i].copy(), C.n) for i in keep]


def is_d_ldpc(C: LinearCode, d: int) -> bool:
    """C is defined by its weight-<=d constraints: C = (C^perp_<=d)^perp."""
    short = low_weight_dual_words(C, d)
    if not short:
        return C.k == C.n
    return f2core.rank(BitMatrix.from_rows(short)) == C.n - C.k


def punctured_code(C: LinearCode, I, J, d: int) -> LinearCode:
    """C(I,J): relax the weight-<=d constraints meeting I, puncture J.

    Builds C^perp_<=d(I) = short constraints vanishing on I, takes its
    annihilator, and restricts the resulting codewords to [r] \\ J.
    """
    I, J = set(I), set(J)
    if not I <= J:
        raise ValueError("need I Subset of J")
    if not J <= set(range(C.n)):
        raise ValueError("J out of range")
    short = low_weight_dual_words(C, d)
    kept_rows = [v for v in short if all(v[i] == 0 for i in I)]
    bigger = LinearCode.from_parity_checks(kept_rows, n=C.n)
    keep_coords = sorted(set(range(C.n)) - J)
    if len(keep_coords) == 0:
        return LinearCode(0, BitMatrix.zeros(0, 0), BitMatrix.zeros(0, 0),
                          provenance="punctured", params={"I": sorted(I), "J": sorted(J)})
    return LinearCode.from_generators(
        BitMatrix(bigger.generator.to_array()[:, keep_coords]),
        provenance="punctured", params={"I": sorted(I), "J": sorted(J), "d": d})


def punctured_normalized_distance(code: LinearCode) -> Fraction | None:
    """delta(C(I,J)); None means the punctured code is {0} (vacuously good)."""
    if code.n == 0 or code.k == 0:
        return None
    return Fraction(code.distance_exact(), code.n)


class SmoothingFailure(RuntimeError):
    """The iterative vertex-growing procedure exceeded its step bound."""

    def __init__(self, msg, violating_set):
        super().__init__(msg)
        self.violating_set = violating_set


def smoothing_set(graph, labelling: np.ndarray, I, delta0: Fraction) -> dict:
    """Grow the erased edge set I into the smoothing superset J.

    Starts from the endpoints U0 of I and repeatedly absorbs any vertex
    with more than delta0*d/2 neighbours inside the current set; J is every
    edge touching the final set.  The procedure must stop within |U0| steps
    when the graph expands enough (lambda < delta0/4); exceeding it raises
    SmoothingFailure with the violating set.

    Returns {"J", "U", "steps"} with the three certified properties
    I Subset J, |J| <= 4d|I|, and every outside vertex sees at most
    delta0*d/2 edges of J (the stopping rule only absorbs vertices with
    strictly more).
    """
    labelling = np.asarray(labelling)
    n_vertices, d = labelling.shape
    I = sorted(set(I))
    edge_vertices: dict[int, list[int]] = {}
    for v in range(n_vertices):
        for e in labelling[v]:
            edge_vertices.setdefault(int(e), []).append(v)
    U = set()
    for e in I:
        U.update(edge_vertices[e])
    u0 = len(U)
    threshold = delta0 * d / 2
    steps = 0
    while True:
        candidate = None
        for v in range(n_vertices):
            if v in U:
                continue
            nbrs_in = 0
            for e in labelling[v]:
                for w in edge_vertices[int(e)]:
                    if w != v and w in U:
                        nbrs_in += 1
            if Fraction(nbrs_in) > threshold:
                candidate = v
                break
        if candidate is None:
            break
        U.add(candidate)
        steps += 1
        if steps > u0:
            raise SmoothingFailure(
                f"smoothing grew for more than |U0| = {u0} steps: "
                "expansion hypothesis (lambda < delta0/4) fails", U)
    J = sorted({int(e) for v in U for e in labelling[v]})
    assert set(I) <= set(J)
    assert len(J) <= 4 * d * max(len(I), 0) or not I
    J_set = set(J)
    for v in range(n_vertices):
        if v not in U:
            inc = sum(1 for e in labelling[v] if int(e) in J_set)
            assert Fraction(inc) <= threshold, "outside vertex sees too many J edges"
    return {"J": J, "U": sorted(U), "steps": steps, "U0_size": u0}


def verify_us(C: LinearCode, alpha: Fraction, beta: Fraction, delta: Fraction,
              d: int, strategy: str = "exhaustive",
              graph=None, labelling=None, local_delta0: Fraction | None = None) -> dict:
    """Certificate or counterexample for (alpha, beta, delta, d)-US.

    exhaustive: for every I with |I| <= alpha*r, search all J Superset I with
    |J| <= |I|/beta for one with delta(C(I,J)) >= delta.  constructive:
    produce J by the smoothing procedure on the Tanner graph of C, whose
    absorption threshold uses the local code distance local_delta0.
    """
    r = C.n
    if not is_d_ldpc(C, d):
        return {"certified": False, "reason": f"not a {d}-LDPC code"}
    max_i = int(alpha * r)
    if strategy == "exhaustive" and r > 16:
        raise DimensionBudgetError("exhaustive US verification capped at r <= 16")
    if strategy == "constructive" and (graph is None or labelling is None
                                       or local_delta0 is None):
        raise ValueError(
            "constructive strategy needs the Tanner graph, labelling and delta0")
    witnesses = []
    for size in range(max_i + 1):
        for I in combinations(range(r), size):
            budget = int(Fraction(len(I)) / beta) if I else 0
            found = None
            if strategy == "constructive":
                rec = smoothing_set(graph, labelling, I, delta0=local_delta0)
                J = rec["J"]
                if len(J) <= budget or not I:
                    delta_meas = punctured_normalized_distance(
                        punctured_code(C, I, J, d))
                    if delta_meas is None or delta_meas >= delta:
                        found = (J, delta_meas)
            else:
                for jsize in range(len(I), budget + 1):
                    for extra in combinations(sorted(set(range(r)) - set(I)),
                                              jsize - len(I)):
                        J = sorted(set(I) | set(extra))
                        delta_meas = punctured_normalized_distance(
                            punctured_code(C, I, J, d))
                        if delta_meas is None or delta_meas >= delta:
                            found = (J, delta_meas)
                            break
                    if found:
                        break
            if found is None:
                return {
                    "certified": False,
                    "counterexample_I": list(I),
                    "reason": "no admissible J reaches the distance target",
                }
            witnesses.append({
                "I": list(I), "J": list(found[0]),
                "delta": None if found[1] is None else
                [found[1].numerator, found[1].denominator],
            })
    return {"certified": True, "witnesses": witnesses,
            "params": {"alpha": str(alpha), "beta": str(beta),
                       "delta": str(delta), "d": d}}

