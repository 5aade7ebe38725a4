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
from .f2core import BitMatrix, DimensionBudgetError

SIGMA_MAX_RK = 12
#: Entries of one (representative, w, g) block in sigma_exact (2 MB of uint8).
SIGMA_BLOCK = 1 << 21


@dataclass
class SigmaResult:
    value: Fraction
    f: np.ndarray
    g: np.ndarray
    pairs_scanned: int


def _row_valid_matrices(C1: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """All matrices with every row in C1, as (count, r, r) bits plus an
    encoding of each row as a small int for fast row comparisons."""
    r = C1.n
    words = C1.codewords()                                      # (2^k1, r)
    k = words.shape[0]
    idx = np.indices((k,) * r).reshape(r, -1).T                 # (k^r, r)
    mats = words[idx]                                           # (k^r, r, r)
    pows = (1 << np.arange(r)).astype(np.int64)
    row_codes = mats @ pows                                      # (k^r, r)
    return mats, row_codes


def _column_distances(C1: LinearCode, W: np.ndarray) -> np.ndarray:
    """(|W|, |G|) uint8 counts of the columns where each matrix of W (columns
    in C1) and each column-valid g differ: the nonzero k1-bit digits of the
    XOR of their names, a column's digit its bits on C1.information_set (its
    row in C1.codewords()), column 0 highest, so g's name is its index."""
    r, k1 = C1.n, C1.k
    shifts = np.arange(k1) + k1 * np.arange(r - 1, -1, -1)[:, None]   # (column, bit)
    W_id = np.swapaxes(W, 1, 2)[:, :, C1.information_set].reshape(len(W), -1) @ (
        1 << shifts.ravel())
    nonzero = (np.indices((1 << k1,) * r) != 0).sum(axis=0, dtype=np.uint8).ravel()
    ids = np.arange(len(nonzero))
    D_col = np.empty((len(W), len(ids)), dtype=np.uint8)
    step = max(1, (1 << 16) // len(ids))             # 512 KB of XORed names a block
    for lo in range(0, len(W), step):
        D_col[lo:lo + step] = nonzero[W_id[lo:lo + step, None] ^ ids]
    return D_col


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
    are held in uint8, and d_col is read off _column_distances.  Pairs
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
    W = C0.codewords().reshape(-1, r, r)
    pows = (1 << np.arange(r)).astype(np.int64)
    W_rows = W.reshape(-1, r, r) @ pows                          # (|W|, r)
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
    D_col = _column_distances(C1, W)                                 # (|W|, |G|)

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


def low_weight_dual_words(C: LinearCode, d: int) -> np.ndarray:
    """The dual codewords of weight 1..d, packed, in the order of the
    exhaustive dual enumeration."""
    dual_dim = C.n - C.k
    if dual_dim > f2core.MAX_ENUM_DIMENSION:
        raise DimensionBudgetError(
            f"dual dimension {dual_dim} exceeds the enumeration budget")
    words = f2core._xor_table(C.parity.words)
    wts = np.bitwise_count(words).sum(axis=1)
    return words[(wts <= d) & (wts > 0)]


def _first_good_puncture(words: np.ndarray, I: tuple, r: int, beta: Fraction,
                         delta: Fraction):
    """(J, delta(C(I,J))) for the first J Superset I with |J| <= |I|/beta,
    by size and then in combinations order, where delta(C(I,J)) >= delta
    or C(I,J) = {0} (delta None); None when no J qualifies.

    words are the packed codewords of the relaxed code C_I.  Masked to
    [r] \\ J they are the words of C(I,J), so its distance is their least
    nonzero weight.
    """
    budget = int(Fraction(len(I)) / beta) if I else 0
    rest = sorted(set(range(r)) - set(I))
    for jsize in range(len(I), budget + 1):
        for extra in combinations(rest, jsize - len(I)):
            J = sorted(set(I) | set(extra))
            wts = np.bitwise_count(words & ~np.uint64(sum(1 << j for j in J)))
            wts = wts[wts > 0]
            delta_meas = Fraction(int(wts.min()), r - len(J)) if wts.size else None
            if delta_meas is None or delta_meas >= delta:
                return J, delta_meas
    return None


def verify_us(C: LinearCode, alpha: Fraction, beta: Fraction, delta: Fraction,
              d: int) -> dict:
    """Certificate or counterexample for (alpha, beta, delta, d)-US.

    For every I with |I| <= alpha*r, search all J Superset I with
    |J| <= |I|/beta for one with delta(C(I,J)) >= delta.  The short dual
    words are enumerated once; C is d-LDPC when they span its dual.  For
    each I, C_I, the code of the short words that vanish on I, is
    enumerated once, and every J reads it.
    """
    r = C.n
    short = low_weight_dual_words(C, d)
    if f2core.rank(BitMatrix._from_words(short, len(short), r)) != r - C.k:
        return {"certified": False, "reason": f"not a {d}-LDPC code"}
    max_i = int(alpha * r)
    if r > 16:
        raise DimensionBudgetError("exhaustive US verification capped at r <= 16")
    checks = short[:, 0]            # r <= 16: one packed word per short word
    witnesses = []
    for size in range(max_i + 1):
        for I in combinations(range(r), size):
            kept = short[(checks & np.uint64(sum(1 << i for i in I))) == 0]
            H = f2core.row_basis(BitMatrix._from_words(kept, len(kept), r))
            words = f2core._xor_table(f2core.reduced_kernel_basis(H).words)[:, 0]
            found = _first_good_puncture(words, I, r, beta, delta)
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
