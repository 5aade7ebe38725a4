from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleyltc import f2core
from cayleyltc.analysis import (
    _column_distances,
    _row_valid_matrices,
    low_weight_dual_words,
    sigma_exact,
    verify_us,
)
from cayleyltc.codes import (
    LinearCode,
    bch_code,
    full_code,
    parity_code,
    repetition_code,
    tanner_code_on_graph,
    tensor_code,
)
from cayleyltc.f2core import BitMatrix, BitVector, DimensionBudgetError, rank
from cayleyltc.groups import Graph
from test_codes import from_generators


def graph_from_pairs(n, pairs):
    arcs = []
    for u, v in pairs:
        arcs.append((u, v))
        arcs.append((v, u))
    return Graph(n, np.array(arcs, dtype=np.int64))


def triangle():
    return graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


# -- rc distances -------------------------------------------------------------

RC_MAX_K0 = 20


def _as_grid(x, r: int) -> np.ndarray:
    if isinstance(x, BitVector):
        x = x.to_bits()
    return np.asarray(x, dtype=np.uint8).reshape(r, r) & 1


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
    """Reference: exact d, d_row, d_col and d_rc((f,g), C1 (x) C1) with the
    minimizer, by enumerating the tensor square (k1^2 is budget-capped).

    f must have all rows in C1 and g all columns in C1.
    """
    r = C1.n
    if C1.k * C1.k > RC_MAX_K0:
        raise DimensionBudgetError(
            f"tensor dimension {C1.k ** 2} exceeds the d_rc budget {RC_MAX_K0}")
    fg, gg = _as_grid(f, r), _as_grid(g, r)
    _validate_pair(C1, fg, gg)
    best = None
    best_w = None
    for w in tensor_code(C1).codewords():
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


def test_rc_distance_zero_pair():
    c = repetition_code(2)
    f = np.zeros((2, 2), dtype=np.uint8)
    rec = rc_distance(f, f, c)
    assert rec["d"] == 0 and rec["d_rc"] == 0


def test_rc_distance_spec_pair():
    c = repetition_code(2)
    f = np.array([[0, 0], [1, 1]], dtype=np.uint8)   # rows in C
    g = np.array([[0, 1], [0, 1]], dtype=np.uint8)   # columns in C
    rec = rc_distance(f, g, c)
    assert rec["d"] == Fraction(1, 2)
    assert rec["d_rc"] == Fraction(1, 2)


def test_rc_distance_validates_memberships():
    c = repetition_code(2)
    bad = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="row"):
        rc_distance(bad, np.zeros((2, 2), np.uint8), c)


def test_rc_pairwise_sigma_le_2_random():
    c = parity_code(3)
    rng = np.random.default_rng(4)
    words = c.codewords()
    for _ in range(25):
        f = np.stack([words[rng.integers(len(words))] for _ in range(3)])
        g = np.stack([words[rng.integers(len(words))] for _ in range(3)]).T
        rec = rc_distance(f, g, c)
        assert rec["d"] <= 2 * rec["d_rc"] or rec["d"] == 0


def test_distance_translation_invariance():
    c = parity_code(3)
    rng = np.random.default_rng(7)
    words = c.codewords()
    from cayleyltc.codes import tensor_code

    t = tensor_code(c)
    tensor_words = t.codewords().reshape(-1, 3, 3)
    f = np.stack([words[rng.integers(len(words))] for _ in range(3)])
    g = np.stack([words[rng.integers(len(words))] for _ in range(3)]).T
    for w in tensor_words[:8]:
        assert plain_distance(f, g, 3) == plain_distance(f ^ w, g ^ w, 3)
        assert row_distance(f, g, 3) == row_distance(f ^ w, g ^ w, 3)
        assert col_distance(f, g, 3) == col_distance(f ^ w, g ^ w, 3)


def test_plain_distance_bounded_by_row_col():
    rng = np.random.default_rng(11)
    for _ in range(50):
        f = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        zero = np.zeros((4, 4), dtype=np.uint8)
        assert plain_distance(f, zero, 4) <= row_distance(f, zero, 4)
        assert plain_distance(f, zero, 4) <= col_distance(f, zero, 4)


# -- sigma --------------------------------------------------------------------


def test_sigma_repetition_2_is_1():
    assert sigma_exact(repetition_code(2)).value == 1


def test_sigma_le_2():
    for c in (repetition_code(2), repetition_code(3), parity_code(2),
              parity_code(3)):
        assert sigma_exact(c).value <= 2


def test_sigma_budget():
    with pytest.raises(DimensionBudgetError):
        sigma_exact(parity_code(5))         # r*k1 = 20 > 12


def test_sigma_minimizing_pair_is_valid():
    c = parity_code(3)
    res = sigma_exact(c)
    rec = rc_distance(res.f, res.g, c)
    assert rec["d"] / rec["d_rc"] == res.value


def _sigma_full_enumeration(C1):
    """Reference oracle: sigma(C1) over every row-valid f and column-valid g.

    Scans f in the order of _row_valid_matrices and keeps the first pair
    reaching the minimum, so it fixes both the value and the minimizer.
    """
    r = C1.n
    F, F_rows = _row_valid_matrices(C1)
    G = np.swapaxes(F, 1, 2).copy()
    C0 = tensor_code(C1)
    W = C0.codewords().reshape(-1, r, r)
    pows = (1 << np.arange(r)).astype(np.int64)
    W_rows = W.reshape(-1, r, r) @ pows
    W_cols = np.swapaxes(W, 1, 2) @ pows
    G_rows = G @ pows
    G_cols = np.swapaxes(G, 1, 2) @ pows
    D_row = (F_rows[:, None, :] != W_rows[None, :, :]).sum(axis=2)
    D_col = (G_cols[:, None, :] != W_cols[None, :, :]).sum(axis=2)
    best = None
    best_pair = None
    for i in range(len(F)):
        minsum = (D_row[i][None, :] + D_col).min(axis=1)
        wt = np.bitwise_count(F_rows[i] ^ G_rows).sum(axis=1)
        neq = wt != 0
        assert not (minsum[neq] == 0).any()
        ratios = 2.0 * wt[neq] / (r * minsum[neq].astype(np.float64))
        j = int(np.nonzero(neq)[0][int(np.argmin(ratios))])
        cand = Fraction(2 * int(wt[j]), r * int(minsum[j]))
        if best is None or cand < best:
            best = cand
            best_pair = (F[i].copy(), G[j].copy())
    return best, best_pair[0], best_pair[1]


def _assert_sigma_matches_oracle(c):
    res = sigma_exact(c)
    value, f, g = _sigma_full_enumeration(c)
    assert res.value == value
    assert np.array_equal(res.f, f) and np.array_equal(res.g, g)
    return res


_SIGMA_CODES = {"rep": repetition_code, "parity": parity_code, "full": full_code}


@pytest.mark.parametrize("kind, r", [
    ("rep", 2), ("rep", 3), ("rep", 4), ("rep", 5), ("rep", 6), ("rep", 12),
    ("parity", 2), ("parity", 3), ("full", 2), ("full", 3),
])
def test_sigma_matches_full_enumeration(kind, r):
    c = _SIGMA_CODES[kind](r)
    res = _assert_sigma_matches_oracle(c)
    rec = rc_distance(res.f, res.g, c)
    assert rec["d"] / rec["d_rc"] == res.value
    # one f per coset of C1 (x) C1, each against every g but itself
    cosets = 2 ** (c.k * (c.n - c.k))
    assert res.pairs_scanned == cosets * 2 ** (c.n * c.k) - 1


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_sigma_matches_full_enumeration_random_codes(r, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9 // r + 1))
    c = from_generators(
        BitMatrix(rng.integers(0, 2, size=(k, r), dtype=np.uint8)))
    assume(c.k > 0)
    _assert_sigma_matches_oracle(c)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["rep3", "rep4", "parity3", "full2", "random"]),
       st.integers(0, 2**32 - 1))
def test_rc_distance_invariant_under_tensor_shift(name, seed):
    rng = np.random.default_rng(seed)
    if name == "random":
        c = from_generators(
            BitMatrix(rng.integers(0, 2, size=(2, 4), dtype=np.uint8)))
        assume(c.k > 0)
    else:
        c = _SIGMA_CODES[name[:-1]](int(name[-1]))
    r = c.n
    words = c.codewords()
    f = np.stack([words[i] for i in rng.integers(len(words), size=r)])
    g = np.stack([words[i] for i in rng.integers(len(words), size=r)]).T
    shift = tensor_code(c).random_codeword(rng).to_bits().reshape(r, r)
    rec = rc_distance(f, g, c)
    shifted = rc_distance(f ^ shift, g ^ shift, c)
    assert (shifted["d"], shifted["d_rc"]) == (rec["d"], rec["d_rc"])


def _sigma_int64_scan(C1):
    """Reference: the coset-representative scan of sigma_exact with int64
    mismatch counts and whole (|W|, |G|, r) comparisons, one representative
    block at a time; returns (value, f, g, pairs scanned)."""
    r = C1.n
    F, F_rows = _row_valid_matrices(C1)
    G = np.swapaxes(F, 1, 2).copy()
    C0 = tensor_code(C1)
    W = C0.codewords().reshape(-1, r, r)
    pows = (1 << np.arange(r)).astype(np.int64)
    W_rows = W.reshape(-1, r, r) @ pows
    W_cols = np.swapaxes(W, 1, 2) @ pows
    G_cols = np.swapaxes(G, 1, 2) @ pows
    F_flat = F.reshape(len(F), -1).astype(np.float64)
    G_flat = G.reshape(len(G), -1).astype(np.float64)
    F_wt, G_wt = F_flat.sum(axis=1), G_flat.sum(axis=1)
    H0 = C0.parity.to_array().T.astype(np.float64)
    syndromes = np.packbits((F_flat @ H0) % 2 != 0, axis=1)
    reps = np.sort(np.unique(syndromes, axis=0, return_index=True)[1])
    D_row = (F_rows[reps][:, :, None] != W_rows.T[None]).sum(axis=1)
    D_col = (W_cols[:, None, :] != G_cols[None]).sum(axis=2)
    block = max(1, (1 << 21) // D_col.size)
    best, best_pair, pairs = None, None, 0
    for start in range(0, len(reps), block):
        idx = reps[start:start + block]
        minsum = (D_row[start:start + block, :, None] + D_col[None]).min(axis=1)
        wt = F_wt[idx, None] + G_wt[None] - 2 * (F_flat[idx] @ G_flat.T)
        neq = wt != 0
        pairs += int(neq.sum())
        ratios = np.full(wt.shape, np.inf)
        np.divide(2 * wt, r * minsum, out=ratios, where=neq)
        t, j = np.unravel_index(np.argmin(ratios), ratios.shape)
        cand = Fraction(2 * int(wt[t, j]), r * int(minsum[t, j]))
        if best is None or cand < best:
            best, best_pair = cand, (F[idx[t]].copy(), G[j].copy())
    return best, best_pair[0], best_pair[1], pairs


def _column_distances_loop(C1, W):
    """Reference: the column mismatch counts of W against the column-valid
    matrices, one column b at a time over r passes."""
    r = C1.n
    G = np.swapaxes(_row_valid_matrices(C1)[0], 1, 2)
    pows = (1 << np.arange(r)).astype(np.int64)
    W_cols = np.swapaxes(W, 1, 2) @ pows
    G_cols = np.swapaxes(G, 1, 2) @ pows
    D_col = np.zeros((len(W), len(G)), dtype=np.uint8)
    for b in range(r):
        D_col += W_cols[:, b, None] != G_cols[:, b]
    return D_col


_SIGMA_SPECS = [*(f"rep:{r}" for r in range(2, 13)), "parity:2", "parity:3", "parity:4",
                "full:2", "full:3", "bch:3,7"]


def _sigma_base(spec):
    kind, _, arg = spec.partition(":")
    return bch_code(3, 7) if kind == "bch" else _SIGMA_CODES[kind](int(arg))


@pytest.mark.parametrize("spec", _SIGMA_SPECS)
def test_column_distances_match_the_r_pass_loop(spec):
    # on the tensor code's words, as sigma_exact reads them, and on random
    # matrices whose columns lie in C1
    c = _sigma_base(spec)
    r = c.n
    W = tensor_code(c).codewords().reshape(-1, r, r)
    words = c.codewords()
    picks = np.random.default_rng(r).integers(len(words), size=(40, r))
    for M in (W, np.swapaxes(words[picks], 1, 2)):
        D_col = _column_distances(c, M)
        assert D_col.dtype == np.uint8
        assert np.array_equal(D_col, _column_distances_loop(c, M)), spec


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_column_distances_match_the_r_pass_loop_on_random_codes(r, seed):
    rng = np.random.default_rng(seed)
    c = from_generators(BitMatrix(rng.integers(0, 2, size=(12 // r, r), dtype=np.uint8)))
    assume(c.k > 0)
    W = tensor_code(c).codewords().reshape(-1, r, r)
    assert np.array_equal(_column_distances(c, W), _column_distances_loop(c, W))


@pytest.mark.parametrize("spec", _SIGMA_SPECS)
def test_sigma_uint8_counts_match_the_int64_scan(spec):
    # every base code with r * k1 <= 12; bch:3,7 is the [7, 1] BCH code
    c = _sigma_base(spec)
    assert c.n * c.k <= 12
    res = sigma_exact(c)
    value, f, g, pairs = _sigma_int64_scan(c)
    assert (res.value, res.pairs_scanned) == (value, pairs)
    assert np.array_equal(res.f, f) and np.array_equal(res.g, g)


def test_sigma_parity4_pinned():
    res = sigma_exact(parity_code(4))
    assert res.value == Fraction(1, 2)
    assert res.f.tolist() == [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0]]
    assert res.g.tolist() == [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]
    assert res.pairs_scanned == 8 * 4096 - 1


# -- punctured codes ----------------------------------------------------------


def punctured_code(C: LinearCode, I, J, d: int) -> LinearCode:
    """Reference C(I,J): relax the weight-<=d constraints meeting I, puncture J.

    Builds C^perp_<=d(I) = short constraints vanishing on I, takes its
    annihilator, and restricts the resulting codewords to [r] \\ J.
    """
    I, J = set(I), set(J)
    if not I <= J:
        raise ValueError("need I Subset of J")
    if not J <= set(range(C.n)):
        raise ValueError("J out of range")
    short = f2core._unpack_bits(low_weight_dual_words(C, d), C.n)
    bigger = LinearCode.from_parity_checks(BitMatrix(short[~short[:, sorted(I)].any(axis=1)]))
    keep_coords = sorted(set(range(C.n)) - J)
    if len(keep_coords) == 0:
        return LinearCode(BitMatrix.zeros(0, 0), provenance="punctured",
                          params={"I": sorted(I), "J": sorted(J)})
    return from_generators(
        BitMatrix(bigger.generator.to_array()[:, keep_coords]),
        provenance="punctured", params={"I": sorted(I), "J": sorted(J), "d": d})


def punctured_normalized_distance(code: LinearCode) -> Fraction | None:
    """delta(C(I,J)); None means the punctured code is {0} (vacuously good)."""
    if code.n == 0 or code.k == 0:
        return None
    return Fraction(code.distance_exact(), code.n)


def verify_us_reference(C: LinearCode, alpha: Fraction, beta: Fraction,
                        delta: Fraction, d: int) -> dict:
    """Reference verify_us: a fresh punctured_code for every (I, J)."""
    r = C.n
    short = f2core._unpack_bits(low_weight_dual_words(C, d), r)
    if rank(BitMatrix(short)) != r - C.k:
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


def _ldpc(c: LinearCode, d: int) -> bool:
    """verify_us's d-LDPC check alone: at alpha = delta = 0 it certifies
    every d-LDPC code and refuses every other."""
    rec = verify_us(c, Fraction(0), Fraction(1), Fraction(0), d)
    assert rec["certified"] or rec["reason"] == f"not a {d}-LDPC code"
    return rec["certified"]


def test_low_weight_duals_hamming():
    # the dual of [7,4,3] Hamming is the simplex code, all weights 4
    c = bch_code(3, 3)
    assert len(low_weight_dual_words(c, 3)) == 0
    words = low_weight_dual_words(c, 4)
    assert np.bitwise_count(words).sum(axis=1).tolist() == [4] * 7
    duals = BitMatrix._from_words(words, 7, 7).to_array()
    assert not (c.codewords().astype(int) @ duals.T % 2).any()


def test_is_d_ldpc():
    assert _ldpc(repetition_code(4), 2)
    assert _ldpc(bch_code(3, 3), 4)
    assert not _ldpc(bch_code(3, 3), 3)
    assert not _ldpc(parity_code(3), 2)
    assert _ldpc(parity_code(3), 3)
    assert _ldpc(full_code(3), 2)       # no short duals, and none needed


def test_punctured_identity_on_empty_sets():
    # C(0,0) = C for a d-LDPC code
    c = repetition_code(4)
    p = punctured_code(c, [], [], 2)
    assert (p.n, p.k) == (4, 1)
    assert p.distance_exact() == 4


def test_punctured_full_puncture_degenerate():
    c = repetition_code(3)
    p = punctured_code(c, range(3), range(3), 2)
    assert p.n == 0 and p.k == 0
    assert punctured_normalized_distance(p) is None


def test_punctured_hamming_example():
    c = bch_code(3, 3)
    p = punctured_code(c, [0], [0], 4)
    assert p.n == 6
    # relaxing the three weight-4 duals through coordinate 0 leaves rank-?
    # constraints; distance measured by the exhaustive oracle
    d = p.distance_exact() if p.k else None
    assert d is not None and d >= 1


def test_punctured_zero_and_full_relaxations():
    # the zero code of length 3 has the unit duals: punctured at 0 with I
    # empty its relaxation keeps them all, so C(I,J) = {0} of length 2
    zero = from_generators(BitMatrix.zeros(0, 3))
    p = punctured_code(zero, [], [0], 1)
    assert (p.n, p.k, p.provenance) == (2, 0, "punctured")
    assert p.params == {"I": [], "J": [0], "d": 1}
    assert punctured_normalized_distance(p) is None
    # parity[3]'s one dual word 111 meets I, so nothing is kept: F_2^2
    p = punctured_code(parity_code(3), [0], [0], 3)
    assert (p.n, p.k, p.provenance) == (2, 2, "punctured")


def test_punctured_requires_subset():
    with pytest.raises(ValueError):
        punctured_code(repetition_code(3), [1], [0], 2)


def test_punctured_repetition_coordinates():
    # relax constraints through coordinate 0 of rep[3]: duals 110, 101
    # vanish... only 011 remains, so the bigger code is {f : f1 = f2}
    c = repetition_code(3)
    p = punctured_code(c, [0], [0], 2)
    assert p.n == 2
    assert p.k == 1
    assert p.distance_exact() == 2


# -- uniform smoothness -------------------------------------------------------


def test_verify_us_trivial_alpha():
    # alpha so small that only I = {} qualifies: reduces to delta(C) >= delta
    c = repetition_code(3)
    rec = verify_us(c, Fraction(1, 4), Fraction(2, 3), Fraction(1), 2)
    assert rec["certified"]
    assert rec["witnesses"] == [{"I": [], "J": [], "delta": [1, 1]}]


def test_verify_us_nontrivial_exhaustive():
    c = repetition_code(3)
    rec = verify_us(c, Fraction(1, 3), Fraction(9, 10), Fraction(1), 2)
    assert rec["certified"]
    assert len(rec["witnesses"]) == 4    # I = {}, {0}, {1}, {2}


def test_verify_us_counterexample_at_empty():
    c = parity_code(3)
    rec = verify_us(c, Fraction(1, 4), Fraction(2, 3), Fraction(1), 3)
    assert not rec["certified"]
    assert rec["counterexample_I"] == []


def test_verify_us_rejects_non_ldpc():
    rec = verify_us(parity_code(3), Fraction(1, 4), Fraction(1, 2), Fraction(1), 2)
    assert not rec["certified"]
    assert "LDPC" in rec["reason"]


def test_verify_us_smooth_implies_agreement_crosscheck():
    # compatible parameters: alpha/beta < min(1/2, delta) and the certified
    # code must then satisfy sigma >= alpha*delta/d
    code = tanner_code_on_graph(triangle(), repetition_code(2))  # = rep[3]
    alpha, beta, delta, d = Fraction(1, 3), Fraction(9, 10), Fraction(1), 2
    assert alpha / beta < min(Fraction(1, 2), delta)
    rec = verify_us(code, alpha, beta, delta, d)
    assert rec["certified"]
    sigma = sigma_exact(code).value
    assert sigma >= alpha * delta / d



def _simplex_code():
    hamming = bch_code(3, 3)
    return LinearCode.from_parity_checks(hamming.generator, "dual")


_US_CODES = {
    "rep:4": lambda: repetition_code(4),
    "rep:8": lambda: repetition_code(8),
    "parity:4": lambda: parity_code(4),
    "bch:3,3": lambda: bch_code(3, 3),
    "bch:4,3": lambda: bch_code(4, 3),
    "full:6": lambda: full_code(6),
    "simplex:3": _simplex_code,         # 3-LDPC: the Hamming words of weight 3
    "pairs:6": lambda: from_generators(BitMatrix(np.kron(
        np.eye(3, dtype=np.uint8), np.ones((1, 2), dtype=np.uint8)))),
    "zero:3": lambda: from_generators(BitMatrix.zeros(0, 3)),
    # two weight-3 checks meeting at 0: at d = 3, C_{0} is all of F_2^5, so
    # C({0}, J) is wider than C punctured at J
    "star:5": lambda: LinearCode.from_parity_checks(
        BitMatrix([[1, 1, 1, 0, 0], [1, 0, 0, 1, 1]])),
}


@pytest.mark.parametrize("name", sorted(_US_CODES))
def test_verify_us_equals_the_punctured_code_reference(name):
    # one enumeration per relaxed code must give the whole report, witnesses
    # and counterexamples included, of a fresh C(I, J) for every (I, J)
    code = _US_CODES[name]()
    for d in (2, 3, 4, 8):
        for alpha, beta, delta in [(Fraction(1, 4), Fraction(2, 3), Fraction(1)),
                                   (Fraction(1, 3), Fraction(9, 10), Fraction(1, 2)),
                                   (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))]:
            ref = verify_us_reference(code, alpha, beta, delta, d)
            assert verify_us(code, alpha, beta, delta, d) == ref, (d, alpha, beta, delta)


def test_verify_us_vacuous_punctures_have_no_delta():
    # every C(I, J) of the zero code is {0}: each I is its own witness
    zero = from_generators(BitMatrix.zeros(0, 3))
    rec = verify_us(zero, Fraction(1, 3), Fraction(1, 2), Fraction(1), 1)
    assert rec["witnesses"] == [{"I": I, "J": I, "delta": None}
                                for I in ([], [0], [1], [2])]
