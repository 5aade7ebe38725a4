"""Brute-force oracles for agreement testability and uniform smoothness.

Agreement testability of a length-r code C compares pairs (f, g) of r x r
matrices where every row of f and every column of g lies in C: sigma(C) is
the worst-case ratio of their plain disagreement d(f,g) to the row/column
correction cost d_rc((f,g), C (x) C).  sigma_exact searches exactly, so it
only runs at small budgets, and it returns an exact fraction.

Uniform smoothness: a d-LDPC code C is (alpha, beta, delta, d)-US when
every small erased set I extends to a set J, of size at most |I|/beta,
with the I-relaxed J-punctured code C(I,J) keeping normalized distance
delta.  verify_us checks this per I by exhaustive search over J.
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


def verify_us(C: LinearCode, alpha: Fraction, beta: Fraction, delta: Fraction,
              d: int) -> dict:
    """Certificate or counterexample for (alpha, beta, delta, d)-US.

    For every I with |I| <= alpha*r, search all J Superset I with
    |J| <= |I|/beta for one with delta(C(I,J)) >= delta.
    """
    r = C.n
    if not is_d_ldpc(C, d):
        return {"certified": False, "reason": f"not a {d}-LDPC code"}
    max_i = int(alpha * r)
    if r > 16:
        raise DimensionBudgetError("exhaustive US verification capped at r <= 16")
    witnesses = []
    for size in range(max_i + 1):
        for I in combinations(range(r), size):
            budget = int(Fraction(len(I)) / beta) if I else 0
            found = None
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
