import itertools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import rows_orthogonal
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyltc import codes, f2core
from cayleyltc.codes import (
    LinearCode,
    bch_code,
    cayley_edge_labelling,
    check_rate_bound,
    check_square_distance_bound,
    check_tanner_distance_bound,
    full_code,
    parity_code,
    repetition_code,
    square_code,
    tanner_code_on_cayley,
    tanner_code_on_graph,
    tensor_code,
)
from cayleyltc.complexes import build_complex
from cayleyltc.f2core import BitMatrix, BitVector, DimensionBudgetError
from cayleyltc.groups import GeneratorSet, Graph, cyclic_group
from cayleyltc.spectral import second_eigenvalue


def graph_from_pairs(n, pairs):
    arcs = []
    for u, v in pairs:
        arcs.append((u, v))
        arcs.append((v, u))
    return Graph(n, np.array(arcs, dtype=np.int64))


def petersen():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_pairs(10, pairs)


def k4():
    return graph_from_pairs(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def toy_complex(n, a_gens, b_gens=None):
    g = cyclic_group(n)
    A = GeneratorSet(g, a_gens, side="left")
    B = GeneratorSet(g, b_gens if b_gens is not None else a_gens, side="right")
    return build_complex(g, A, B)


def from_generators(rows, provenance="explicit", params=None):
    """Reference: the code that the rows of the BitMatrix rows span, built
    from the kernel of their reduced basis as its checks."""
    checks = f2core.reduced_kernel_basis(f2core.row_basis(rows))
    return LinearCode.from_parity_checks(checks, provenance, params)


def dual(code):
    """Reference: the dual code, the generator taken as its checks."""
    return LinearCode.from_parity_checks(code.generator, "dual")


def weight_distribution(code):
    weights, counts = np.unique(code.codewords().sum(axis=1), return_counts=True)
    return dict(zip(weights.tolist(), counts.tolist()))


# -- base codes --------------------------------------------------------------


def test_repetition_parity_full():
    rep = repetition_code(3)
    assert (rep.n, rep.k, rep.distance_exact()) == (3, 1, 3)
    par = parity_code(4)
    assert (par.n, par.k, par.distance_exact()) == (4, 3, 2)
    full = full_code(3)
    assert (full.n, full.k) == (3, 3)
    assert full.contains(BitVector([1, 0, 1]))


def test_code_duality_and_rate():
    c = bch_code(3, 3)
    assert c.k + c.parity.rows == c.n
    assert rows_orthogonal(c.generator, c.parity)
    assert c.rate == pytest.approx(4 / 7)


def test_constructor_refuses_corrupted_unreduced_checks():
    # h + e_j on row 3 meets another row's pivot or moves row 3's leading
    # bit out of order: no generator could be read off such rows
    c = bch_code(4, 5)
    H = c.parity.to_array()
    G = c.generator.to_array()
    for j in np.flatnonzero(G.any(axis=0))[:5]:
        bad = H.copy()
        bad[3, j] ^= 1                     # h + e_j meets a generator at j
        assert not f2core.reduced_echelon(BitMatrix(bad))
        with pytest.raises(ValueError, match="not in reduced row echelon form"):
            LinearCode(BitMatrix(bad), "explicit", None)
        code = LinearCode.from_parity_checks(BitMatrix(bad))
        assert code.parity == f2core.row_basis(BitMatrix(bad))
        assert rows_orthogonal(code.generator, BitMatrix(bad))
    for dependent in ([[1, 1, 0, 0], [1, 1, 0, 0]], [[1, 0, 1, 0], [0, 0, 0, 0]]):
        with pytest.raises(ValueError, match="not in reduced row echelon form"):
            LinearCode(BitMatrix(dependent), "explicit", None)
    assert LinearCode(c.parity, "explicit", None).k == c.k


def test_information_set_is_the_identity_on_the_generator():
    # G is I_k on H's non-pivot columns and H^T on its pivot columns
    for c in (repetition_code(3), parity_code(4), full_code(3), bch_code(4, 5)):
        for code in (c, dual(c), tensor_code(c)):
            G, H = code.generator.to_array(), code.parity.to_array()
            info = code.information_set
            pivots = np.setdiff1d(np.arange(code.n), info)
            assert np.array_equal(pivots, [np.flatnonzero(h)[0] for h in H])
            assert np.array_equal(G[:, info], np.eye(code.k, dtype=np.uint8))
            assert np.array_equal(G[:, pivots], H[:, info].T)


def _membership_words(code, rng):
    """Zero, codewords, codewords plus 1..64 errors, and random words."""
    n = code.n
    words = [np.zeros(n, dtype=np.uint8)]
    for _ in range(12):
        c = code.random_codeword(rng).to_bits()
        words.append(c)
        for e in (1, 2, 3, 7, 64):
            if e <= n:
                err = np.zeros(n, dtype=np.uint8)
                err[rng.choice(n, e, replace=False)] = 1
                words.append(c ^ err)
        words.append(rng.integers(0, 2, n, dtype=np.uint8))
    if n <= 64:
        words += list(np.eye(n, dtype=np.uint8))
    return [BitVector(w) for w in words]


def _assert_contains_matches_syndrome(code, rng):
    for v in _membership_words(code, rng):
        assert code.contains(v) == (code.parity.matvec(v).weight() == 0), code


def test_contains_matches_the_syndrome_on_base_codes():
    rng = np.random.default_rng(2)
    for c in (repetition_code(3), repetition_code(70), parity_code(4),
              parity_code(70), full_code(3), bch_code(3, 3), bch_code(4, 5),
              bch_code(6, 9)):
        tensors = (tensor_code(c), dual(tensor_code(c))) if c.n <= 15 else ()
        for code in (c, dual(c), *tensors):
            _assert_contains_matches_syndrome(code, rng)
    empty = LinearCode(BitMatrix.zeros(0, 0), "punctured", None)
    assert empty.n == 0 and empty.contains(BitVector([]))
    _assert_contains_matches_syndrome(empty, rng)


@pytest.mark.parametrize("name", ["z5", "z10", "z12", "p13"])
def test_contains_matches_the_syndrome_on_square_codes(toy_instances, p13_instance, name):
    code = p13_instance[2] if name == "p13" else toy_instances[name][2]
    _assert_contains_matches_syndrome(code, np.random.default_rng(3))


def test_distance_is_refused_before_any_row_is_built(monkeypatch, p13_instance):
    def called(*args):
        raise AssertionError("distance_exact built rows before refusing")

    code = p13_instance[2]
    monkeypatch.setattr(f2core, "row_basis", called)
    monkeypatch.setattr(f2core, "_xor_table", called)
    with pytest.raises(DimensionBudgetError) as info:
        code.distance_exact()
    assert str(info.value) == "dimension 1096 exceeds exhaustive enumeration budget 24"


def _min_weight_by_row_combinations(rows):
    """Reference: the least weight of a nonzero XOR of some of the rows,
    over all 2^m subsets of them; None when every XOR is zero."""
    rows = np.asarray(rows, dtype=np.uint8)
    subsets = (np.arange(1 << len(rows))[:, None] >> np.arange(len(rows))) & 1
    weights = (subsets @ rows % 2).sum(axis=1)
    return int(weights[weights > 0].min()) if weights.any() else None


def test_distance_exact_matches_the_row_combinations():
    # the generator is a reduced basis of the rows: its table's least nonzero
    # weight is the least over the original rows' combinations, dependent or not
    assert repetition_code(3).distance_exact() == 3
    hamming = [[1, 1, 1, 0, 0, 0, 0], [1, 0, 0, 1, 1, 0, 0],
               [0, 1, 0, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0, 1]]
    assert from_generators(BitMatrix(hamming)).distance_exact() == 3
    rng = np.random.default_rng(7)
    for m, n in [(6, 20), (8, 6), (5, 70), (3, 3)]:
        for _ in range(5):
            rows = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            ref = _min_weight_by_row_combinations(rows)
            if ref is not None:
                assert from_generators(BitMatrix(rows)).distance_exact() == ref


def test_distance_exact_refuses_the_zero_code_and_the_budget():
    for zero in (from_generators(BitMatrix.zeros(0, 3)),
                 from_generators(BitMatrix([[0, 0, 0]]))):
        with pytest.raises(ValueError, match="^zero code has no distance$"):
            zero.distance_exact()
    big = from_generators(BitMatrix(np.eye(30, dtype=np.uint8)))
    for oracle in (big.distance_exact, big.codewords):
        with pytest.raises(DimensionBudgetError) as info:
            oracle()
        assert str(info.value) == "dimension 30 exceeds exhaustive enumeration budget 24"


def test_codeword_x_is_the_sum_of_the_generator_rows_at_the_bits_of_x():
    for code in (repetition_code(3), parity_code(4), bch_code(4, 5), repetition_code(70),
                 tensor_code(parity_code(3)), from_generators(BitMatrix.zeros(0, 5))):
        G = code.generator.to_array()
        words = code.codewords()
        assert words.shape == (1 << code.k, code.n) and words.dtype == np.uint8
        for x in range(1 << code.k):
            bits = (x >> np.arange(code.k)) & 1
            assert np.array_equal(words[x], np.bitwise_xor.reduce(
                G[bits == 1], axis=0, initial=0)), (code, x)


def _random_codeword_loop(code, rng):
    """Reference: XOR the generator rows one at a time."""
    coeffs = rng.integers(0, 2, size=code.k)
    w = np.zeros(code.generator.words.shape[1], dtype=np.uint64)
    for i in np.nonzero(coeffs)[0]:
        w ^= code.generator.words[i]
    return BitVector._from_words(w, code.n)


def test_random_codeword_matches_row_loop():
    for code in (bch_code(6, 9), parity_code(70), repetition_code(3),
                 from_generators(BitMatrix.zeros(0, 5))):
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert code.random_codeword(rng) == _random_codeword_loop(code, ref_rng)
            assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


def test_reduced_parity_checks_give_the_same_code():
    # the reduced echelon form is unique: a code's own parity rows, or
    # those rows in reverse order, reduce to the same parity and generator
    cases = [parity_code(70), repetition_code(3), repetition_code(70), bch_code(6, 9)]
    for code in cases:
        for rows in (code.parity, BitMatrix(code.parity.to_array()[::-1])):
            again = LinearCode.from_parity_checks(rows)
            assert again.parity == code.parity and again.generator == code.generator


def test_empty_inputs_give_the_zero_and_the_full_code():
    zero = from_generators(BitMatrix.zeros(0, 6))
    assert (zero.n, zero.k, zero.parity) == (6, 0, BitMatrix(np.eye(6)))
    full = LinearCode.from_parity_checks(BitMatrix.zeros(0, 6))
    assert (full.n, full.k, full.generator) == (6, 6, BitMatrix(np.eye(6)))
    assert (full.generator, full.parity) == (full_code(6).generator, full_code(6).parity)


# -- BCH ---------------------------------------------------------------------


def test_bch_7_4_3_is_hamming():
    c = bch_code(3, 3)
    assert (c.n, c.k) == (7, 4)
    assert c.distance_exact() == 3
    # the Hamming [7,4,3] weight enumerator pins the code up to equivalence
    assert weight_distribution(c) == {0: 1, 3: 7, 4: 7, 7: 1}


def test_bch_15_7_5():
    c = bch_code(4, 5)
    assert (c.n, c.k) == (15, 7)
    assert c.distance_exact() == 5


def test_bch_15_11_3():
    c = bch_code(4, 3)
    assert (c.n, c.k) == (15, 11)
    assert c.distance_exact() == 3


def test_bch_dimension_bound():
    # k >= n - m * ceil((b-1)/2) for narrow-sense BCH
    for m, b in [(3, 3), (4, 3), (4, 5), (5, 7), (6, 9)]:
        c = bch_code(m, b)
        n = (1 << m) - 1
        assert c.k >= n - m * ((b - 1 + 1) // 2)
        assert c.rate >= 1 - m * b / n


class GF2m:
    """Reference: GF(2^m) arithmetic through log/antilog tables."""

    def __init__(self, m):
        if m not in codes.PRIMITIVE_POLY:
            raise ValueError(f"no primitive polynomial tabulated for m={m}")
        self.size = 1 << m
        self.exp = np.zeros(2 * self.size, dtype=np.int64)
        self.log = np.zeros(self.size, dtype=np.int64)
        x = 1
        for i in range(self.size - 1):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & self.size:
                x ^= codes.PRIMITIVE_POLY[m]
        self.exp[self.size - 1: 2 * self.size - 2] = self.exp[: self.size - 1]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def pow_alpha(self, e):
        return int(self.exp[e % (self.size - 1)])


def poly_mul_gf(field, p, q):
    """Reference: the product of two polynomials over GF(2^m), lowest
    coefficient first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] ^= field.mul(a, b)
    return out


def bch_generator_rows(m, b):
    """Reference: the shifts x^i g(x), i < k, of the BCH generator
    polynomial g, the least common multiple of the minimal polynomials of
    alpha^1 .. alpha^(b-1), with the refusals of bch_code."""
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    n = (1 << m) - 1
    if not 2 <= b <= n:
        raise ValueError(f"designed distance must lie in [2, {n}], got {b}")
    field = GF2m(m)
    covered, g = set(), [1]
    for i in range(1, b):
        if i in covered:
            continue
        coset, s = [], i
        while s not in coset:
            coset.append(s)
            s = 2 * s % n
        covered.update(coset)
        minpoly = [1]
        for s in coset:
            minpoly = poly_mul_gf(field, minpoly, [field.pow_alpha(s), 1])
        assert all(c in (0, 1) for c in minpoly), "minimal polynomial not binary"
        g = poly_mul_gf(field, g, minpoly)
    k = n - (len(g) - 1)
    rows = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        rows[i, i: i + len(g)] = g
    return BitMatrix(rows)


def _outcome(build, *args):
    """The code build(*args) returns, or the message of its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def _assert_bch_matches_generator_polynomial(m, b):
    code, rows = _outcome(bch_code, m, b), _outcome(bch_generator_rows, m, b)
    if isinstance(rows, str):
        assert code == rows, (m, b)
        return
    ref = from_generators(rows)
    assert f2core.row_basis(code.generator) == f2core.row_basis(ref.generator), (m, b)
    assert code.parity == f2core.row_basis(ref.parity), (m, b)
    # every defining zero alpha^j, 0 < j < n, has sum_i alpha^(ij) = 0, so
    # the all-ones word is a codeword and k >= 1 for every b
    assert code.contains(BitVector(np.ones(code.n, dtype=np.uint8))), (m, b)


def test_bch_checks_match_the_generator_polynomial():
    for m in range(3, 8):
        for b in range(0, (1 << m) + 2):
            _assert_bch_matches_generator_polynomial(m, b)
    for m, b in [(1, 3), (2, 3), (8, 3), (8, 17), (8, 255), (9, 5), (10, 3),
                 (10, 1024), (17, 3), (17, 1)]:
        _assert_bch_matches_generator_polynomial(m, b)


def test_repetition_checks_match_the_all_ones_generator():
    for n in range(71):
        code, ref = repetition_code(n), from_generators(BitMatrix(np.ones((1, n))))
        assert (code.n, code.k) == (n, min(n, 1))
        assert code.generator == ref.generator, n
        assert code.parity == f2core.row_basis(ref.parity), n


def test_bch_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bch_code(2, 3)
    with pytest.raises(ValueError):
        bch_code(4, 1)
    with pytest.raises(ValueError):
        bch_code(4, 16)


# -- tensor ------------------------------------------------------------------


def test_tensor_repetition():
    t = tensor_code(repetition_code(2))
    assert (t.n, t.k, t.distance_exact()) == (4, 1, 4)
    assert weight_distribution(t) == {0: 1, 4: 1}


def test_tensor_parity():
    t = tensor_code(parity_code(3))
    assert (t.n, t.k) == (9, 4)
    assert t.distance_exact() == 4


def test_tensor_hamming():
    t = tensor_code(bch_code(3, 3))
    assert (t.n, t.k) == (49, 16)
    assert t.distance_exact() == 9


# -- Tanner ------------------------------------------------------------------


def test_tanner_cycle_repetition():
    g = cyclic_group(7)
    code = tanner_code_on_cayley(g, GeneratorSet(g, (1, 6)), repetition_code(2))
    assert (code.n, code.k) == (7, 1)
    assert code.distance_exact() == 7


def test_tanner_petersen_parity():
    code = tanner_code_on_graph(petersen(), parity_code(3))
    assert code.n == 15
    assert code.k == 6          # cycle space of the Petersen graph
    assert code.k >= 2 * (2 / 3) * 15 - 15
    assert code.distance_exact() == 5   # girth


def test_tanner_k4_parity():
    code = tanner_code_on_graph(k4(), parity_code(3))
    assert code.n == 6
    assert code.k == 3
    assert code.distance_exact() == 3   # triangle


def test_tanner_code_over_the_full_code_has_no_checks():
    # a (0 x n) check matrix is an ordinary input: the whole edge space
    code = tanner_code_on_graph(petersen(), full_code(3))
    assert (code.n, code.k, code.parity.rows, code.provenance) == (15, 15, 0, "tanner")
    assert code.generator == BitMatrix(np.eye(15))


def test_tanner_degree_mismatch():
    with pytest.raises(ValueError, match="degree"):
        tanner_code_on_graph(petersen(), parity_code(4))


def test_cayley_edge_labelling_matches_complex_edge_ids():
    # the left side of a complex numbers its edges as Cay(A; G)
    X = toy_complex(12, (1, 11), (5, 7))
    n_left, lab_left = cayley_edge_labelling(X.group, X.A)
    assert n_left == X.n_left_edges
    assert np.array_equal(lab_left.T, X.edge_at[:X.nA])


def test_cayley_edge_labelling_consistency():
    g = cyclic_group(7)
    s = GeneratorSet(g, (1, 6))
    n_edges, lab = cayley_edge_labelling(g, s)
    assert n_edges == 7
    # vertex v sees edge <1,v> at position 0 and edge <6,v> = <1,v-1> at 1
    for v in range(7):
        assert lab[v, 1] == lab[(v - 1) % 7, 0]


# -- square codes ------------------------------------------------------------


def brute_force_square_code_size(X, C1):
    """Independent oracle: test every f in F_2^S against the definition."""
    count = 0
    slots = X.edge_slot_table()
    for bits in itertools.product([0, 1], repeat=X.n_squares):
        f = np.array(bits, dtype=np.uint8)
        ok = all(C1.contains(BitVector(f[slots[e]])) for e in range(X.n_edges))
        count += ok
    return count


def test_square_code_full_space():
    X = toy_complex(5, (1, 4))
    code = square_code(X, full_code(2))
    assert code.k == X.n_squares == 5


def test_square_code_z5_repetition():
    X = toy_complex(5, (1, 4))
    C1 = repetition_code(2)
    code = square_code(X, C1)
    assert 2 ** code.k == brute_force_square_code_size(X, C1)
    assert code.k == 1
    assert code.distance_exact() == 5


def test_square_code_z3_repetition():
    X = toy_complex(3, (1, 2))
    C1 = repetition_code(2)
    code = square_code(X, C1)
    assert 2 ** code.k == brute_force_square_code_size(X, C1)


def test_square_code_z12():
    X = toy_complex(12, (1, 11), (5, 7))
    code = square_code(X, repetition_code(2))
    assert code.n == 12
    assert code.k >= (4 * 0.5 - 3) * code.n  # vacuous but asserted exactly
    # local views constant along each edge chain force few codewords
    assert 2 ** code.k == brute_force_square_code_size(X, repetition_code(2))


def test_square_code_length_bound():
    for X in (toy_complex(5, (1, 4)), toy_complex(12, (1, 11), (5, 7))):
        assert X.n_squares >= X.nA ** 2 * X.n_vertices / 4


def test_square_code_rejects_mismatch(monkeypatch):
    X = toy_complex(5, (1, 4))
    with pytest.raises(ValueError, match="length"):
        square_code(X, repetition_code(3))
    monkeypatch.setattr(codes, "SQUARE_CODE_COORD_BUDGET", 3)
    with pytest.raises(DimensionBudgetError,
                       match="square code on 5 coordinates exceeds budget 3"):
        square_code(X, repetition_code(2))


def test_square_code_unequal_degrees():
    X = toy_complex(6, (1, 5), (1, 5, 3))
    with pytest.raises(ValueError, match=r"\|A\| = \|B\|"):
        square_code(X, repetition_code(2))


def _local_checks_loop(views, h_bits, n):
    """Reference: one check row at a time, parity row h on one local view."""
    checks = np.zeros((len(views) * len(h_bits), n), dtype=np.uint8)
    row = 0
    for v in views:
        for h in h_bits:
            np.add.at(checks[row], v, h)
            row += 1
    return checks & 1


def _caller_views(X, C1):
    """(name, views, h_bits, n) as each caller of the packed placer gives
    them: square_code (edges), the vertex views, the r x r grid of
    _row_column_checks, and tanner_code on the left Cayley graph."""
    C0 = tensor_code(C1)
    r = C1.n
    grid = np.arange(r * r).reshape(r, r)
    n_edges, labelling = cayley_edge_labelling(X.group, X.A)
    return [
        ("edge", X.edge_slot_table(), C1.parity.to_array(), X.n_squares),
        ("vertex", X.square_id.transpose(1, 0, 2).reshape(X.n_vertices, -1),
         C0.parity.to_array(), X.n_squares),
        ("grid", np.vstack([grid, grid.T]), C1.parity.to_array(), r * r),
        ("tanner", labelling, parity_code(len(X.A)).parity.to_array(), n_edges)]


@pytest.mark.parametrize("args,C1", [
    ((3, (1, 2)), repetition_code(2)), ((5, (1, 4)), repetition_code(2)),
    ((5, (1, 4)), full_code(2)), ((12, (1, 11), (5, 7)), repetition_code(2)),
    ((10, (1, 3, 5, 7, 9)), parity_code(5)), ((10, (1, 3, 5, 7, 9)), repetition_code(5))])
def test_check_builders_match_row_loop(args, C1):
    # z5 and z10 repeat squares within a view, so placed bits must cancel
    X = toy_complex(*args)
    for name, views, h_bits, n in _caller_views(X, C1):
        assert codes._local_checks(views, h_bits, n) == BitMatrix(
            _local_checks_loop(views, h_bits, n)), name
    C0 = tensor_code(C1)
    edge = codes._edge_wise_checks(X, C1)
    vert = codes._vertex_wise_checks(X, C0)
    assert edge.dtype == vert.dtype == np.uint8
    assert np.array_equal(edge, _local_checks_loop(
        X.edge_slot_table(), C1.parity.to_array(), X.n_squares))
    assert np.array_equal(vert, _local_checks_loop(
        [X.squares_of_vertex(g).ravel() for g in range(X.n_vertices)],
        C0.parity.to_array(), X.n_squares))
    r, h_bits = C1.n, C1.parity.to_array()
    grid = np.arange(r * r).reshape(r, r)
    tensor_views = [grid[a] for a in range(r)] + [grid[:, b] for b in range(r)]
    tensor_checks = _local_checks_loop(tensor_views, h_bits, r * r)
    assert C0.parity == f2core.row_basis(BitMatrix(tensor_checks))
    pairs, labelling = codes.graph_edge_labelling(petersen())
    h = parity_code(3).parity.to_array()
    assert np.array_equal(codes._local_checks(labelling, h, len(pairs)).to_array(),
                          _local_checks_loop(labelling, h, len(pairs)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(1, 6), st.integers(0, 4),
       st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(0, 2**32 - 1))
def test_packed_placer_matches_row_loop_on_random_views(nv, width, nh, n, seed):
    # views drawn with replacement from few coordinates repeat often
    rng = np.random.default_rng(seed)
    views = rng.integers(0, min(n, 1 + rng.integers(0, 4) * width), size=(nv, width))
    h_bits = rng.integers(0, 2, size=(nh, width), dtype=np.uint8)
    M = codes._local_checks(views, h_bits, n)
    assert (M.rows, M.cols) == (nv * nh, n)
    assert M == BitMatrix(_local_checks_loop(views, h_bits, n))


SQUARE_CASES = {"z5": ((5, (1, 4)), repetition_code(2)),
                "z12": ((12, (1, 11), (5, 7)), repetition_code(2)),
                "z10": ((10, (1, 3, 5, 7, 9)), parity_code(5))}


@pytest.mark.parametrize("name", sorted(SQUARE_CASES))
def test_square_code_is_the_edge_wise_elimination(name):
    # the control for the tests below: the proof accepts the true complex
    args, C1 = SQUARE_CASES[name]
    X = toy_complex(*args)
    ref = LinearCode.from_parity_checks(BitMatrix(codes._edge_wise_checks(X, C1)))
    code = square_code(X, C1)
    assert (code.generator, code.parity) == (ref.generator, ref.parity)


GOLDEN_SQUARE_CASES = {"rep:4": ((13, (1, 12, 5, 8)), repetition_code(4)),
                       "bch:3,3": ((16, (1, 15, 2, 14, 3, 13, 8)), bch_code(3, 3)),
                       "bch:4,3": ((32, (1, 31, 2, 30, 3, 29, 4, 28, 5, 27, 6, 26,
                                         7, 25, 16)), bch_code(4, 3))}


def _every_constructor():
    """(name, code) for codes from every constructor."""
    for n in (1, 2, 3, 7, 64, 65, 70):
        for base in (repetition_code, parity_code, full_code):
            yield f"{base.__name__}({n})", base(n)
    for m, b in ((3, 3), (4, 3), (4, 5), (6, 9), (7, 5)):
        yield f"bch({m},{b})", bch_code(m, b)
    for base in (repetition_code(3), parity_code(4), full_code(3), bch_code(3, 3)):
        yield f"tensor({base})", tensor_code(base)
    yield "tanner petersen", tanner_code_on_graph(petersen(), parity_code(3))
    yield "tanner k4", tanner_code_on_graph(k4(), parity_code(3))
    g = cyclic_group(7)
    yield "tanner cayley", tanner_code_on_cayley(g, GeneratorSet(g, (1, 6)), repetition_code(2))
    for name, (args, C1) in {**SQUARE_CASES, **GOLDEN_SQUARE_CASES}.items():
        yield f"square {name}", square_code(toy_complex(*args), C1)
    rng = np.random.default_rng(31)
    for m, n in [(0, 5), (3, 3), (5, 20), (20, 5), (40, 130), (64, 64), (10, 200)]:
        yield f"random {m}x{n}", LinearCode.from_parity_checks(
            BitMatrix(rng.integers(0, 2, size=(m, n), dtype=np.uint8)))


def test_every_constructor_gives_a_generator_orthogonal_to_its_checks():
    # G H^T = 0 by the product, as the reference for the generator that
    # every constructor reads off its reduced checks; G has full rank k
    for name, code in _every_constructor():
        G = code.generator
        assert (G.rows, G.cols, code.parity.cols) == (code.k, code.n, code.n), name
        assert rows_orthogonal(G, code.parity), name
        assert f2core.rank(G) == code.k, name


def _swap_two_distinct(row):
    j = np.flatnonzero(row != row[0])[0]
    row[[0, j]] = row[[j, 0]]


@pytest.mark.parametrize("table", ["left_edge", "right_edge", "square_id", "unnamed_row"])
@pytest.mark.parametrize("name", sorted(SQUARE_CASES))
def test_square_code_catches_a_broken_global_fact(monkeypatch, name, table):
    # two distinct squares swapped along one left or right edge or in one
    # vertex's row, or an edge-wise check on a row that no slot's edge names
    args, C1 = SQUARE_CASES[name]
    X = toy_complex(*args)
    est = X.edge_slot_table()
    if table in ("left_edge", "right_edge"):
        side = (X.edge_label >= X.nA) == (table == "right_edge")
        e = np.flatnonzero((est != est[:, :1]).any(axis=1) & side)[0]
        _swap_two_distinct(est[e])
        monkeypatch.setattr(X, "edge_slot_table", lambda: est)
    elif table == "square_id":
        a, g = np.argwhere((X.square_id != X.square_id[:, :, :1]).any(axis=2))[0]
        _swap_two_distinct(X.square_id[a, g])
    else:
        monkeypatch.setattr(X, "edge_slot_table", lambda: np.vstack([est, est[:1]]))
    with pytest.raises(AssertionError, match="views along their edges"):
        square_code(X, C1)


@pytest.mark.parametrize("wrong", ["span", "dimension"])
@pytest.mark.parametrize("name", sorted(SQUARE_CASES))
def test_square_code_catches_a_broken_local_fact(monkeypatch, name, wrong):
    # a tensor code with one generator swapped for a vector outside its
    # span (dimension k1^2, other span), or with one generator dropped (a
    # subcode, which the row and column checks still annihilate)
    args, C1 = SQUARE_CASES[name]
    X = toy_complex(*args)
    real = tensor_code(C1)
    G = real.generator.to_array()
    if wrong == "span":
        G[0] = next(e for e in np.eye(real.n, dtype=np.uint8)
                    if not real.contains(BitVector(e)))
    else:
        G = G[1:]
    bad = from_generators(BitMatrix(G))
    assert bad.k == real.k - (wrong == "dimension")
    monkeypatch.setattr(codes, "tensor_code", lambda C1: bad)
    with pytest.raises(AssertionError, match="row-and-column code"):
        square_code(X, C1)


def test_square_code_peak_memory_is_bounded_by_the_edge_checks(p13_instance):
    # the edge-wise checks He as dense uint8 are the one large matrix the
    # construction needs; a second dense check matrix would exceed this
    X, C1 = p13_instance[:2]
    he_bytes = X.n_edges * C1.parity.rows * X.n_squares
    tracemalloc.start()
    try:
        square_code(X, C1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * he_bytes


def test_square_code_peak_memory_is_a_few_packed_edge_checks(p13_instance):
    # He placed packed and eliminated a block at a time, with no generator
    # derived: a dense He (19 MB on p13) or any dense temporary of its size
    # would exceed this (2.3 MiB packed, 13.8 MiB bound)
    X, C1 = p13_instance[:2]
    packed = X.n_edges * C1.parity.rows * (-(-X.n_squares // 64)) * 8
    tracemalloc.start()
    try:
        square_code(X, C1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * packed


# -- bound checkers ----------------------------------------------------------


def test_rate_bounds():
    X = toy_complex(5, (1, 4))
    sq = square_code(X, repetition_code(2))
    rec = check_rate_bound(sq.k, sq.n, 2, 1)
    assert rec == {"k": 1, "n": 5, "bound": -5.0, "verdict": "pass"}


def test_rate_verdicts_are_exact_at_the_bound():
    # (4 * 5/6 - 3) * 9 = 3 exactly, but 3.0000000000000013 in floats
    for k, verdict in ((3, "pass"), (2, "fail")):
        rec = check_rate_bound(k, 9, 6, 5)
        assert rec["bound"] == (4 * (5 / 6) - 3) * 9
        assert rec["verdict"] == verdict


def test_tanner_code_records_the_local_code():
    code = tanner_code_on_graph(petersen(), parity_code(3))
    assert (code.params["k0"], code.params["n0"]) == (2, 3)
    assert code.params["rho0"] == parity_code(3).rate


def test_tanner_distance_bound_petersen():
    code = tanner_code_on_graph(petersen(), parity_code(3))
    lam = second_eigenvalue(petersen(), method="dense").lam
    assert lam == pytest.approx(1 / 3)
    rec = check_tanner_distance_bound(code, delta0=2 / 3, lam=lam)
    assert rec["verdict"] == "pass"
    assert rec["distance"] == 5
    assert rec["bound"] == pytest.approx((2 / 3) * (1 / 3) * 15)


def test_tanner_distance_bound_k4_clamps_negative_lambda():
    code = tanner_code_on_graph(k4(), parity_code(3))
    lam = second_eigenvalue(k4(), method="dense").lam
    assert lam == pytest.approx(-1 / 3)
    rec = check_tanner_distance_bound(code, delta0=2 / 3, lam=lam)
    # with lambda clamped at 0 the bound is (2/3)^2 * 6 = 8/3 <= 3
    assert rec["verdict"] == "pass"
    assert rec["bound"] == pytest.approx(8 / 3)


def test_square_distance_bound_z5():
    X = toy_complex(5, (1, 4))
    code = square_code(X, repetition_code(2))
    lam = float(np.cos(2 * np.pi / 5))
    rec = check_square_distance_bound(code, delta1=1.0, lam=lam)
    assert rec["verdict"] == "pass"
    assert rec["distance"] == 5


def test_distance_verdicts_are_exact_at_the_bound():
    # Petersen: d = 5 and (2/3)(2/3 - 1/6) * 15 = 5 exactly; 1e-12 less lambda
    # puts the bound 1e-11 above d, inside the old float slack of 1e-9
    code = tanner_code_on_graph(petersen(), parity_code(3))
    for lam, verdict in ((Fraction(1, 6), "pass"),
                         (Fraction(1, 6) - Fraction(1, 10**12), "fail")):
        rec = check_tanner_distance_bound(code, delta0=Fraction(2, 3), lam=lam)
        assert rec["distance"] == 5
        assert rec["bound"] == pytest.approx(5)
        assert rec["verdict"] == verdict


def test_distance_hypothesis_is_exact():
    # the float 1/3 lies below the rational 1/3, which therefore exceeds it
    code = tanner_code_on_graph(petersen(), parity_code(3))
    assert check_tanner_distance_bound(code, Fraction(1, 3), 1 / 3)["hypothesis_holds"]
    assert not check_tanner_distance_bound(code, 1 / 3, 1 / 3)["hypothesis_holds"]


def test_square_distance_is_computed_only_when_it_decides():
    def no_distance():
        raise AssertionError("the distance was computed")

    for k, lam, reason in (
            (1, Fraction(1, 2), "delta0 <= lambda: proposition hypothesis fails"),
            (0, 0.25, "exact distance unavailable: zero code has no distance"),
            (25, 0.25, "exact distance unavailable: dimension 25 exceeds "
                       "exhaustive enumeration budget 24")):
        recorded = SimpleNamespace(n=100, k=k, distance_exact=no_distance)
        rec = check_square_distance_bound(recorded, Fraction(1, 2), lam)
        assert (rec["verdict"], rec["reason"]) == ("na", reason)
        assert rec["bound"] == 0.25 * 0.5 * 0.5 * (0.5 - max(float(lam), 0.0)) * 100
    recorded = SimpleNamespace(n=100, k=24, distance_exact=lambda: 2)
    rec = check_square_distance_bound(recorded, Fraction(1, 2), 0.25)
    assert (rec["distance"], rec["bound"], rec["verdict"]) == (2, 1.5625, "pass")


def test_distance_bound_vacuous_reports_na():
    code = tanner_code_on_graph(petersen(), parity_code(3))
    rec = check_tanner_distance_bound(code, delta0=0.2, lam=1 / 3)
    assert rec["verdict"] == "na"
    assert "hypothesis" in rec["reason"]


def test_sidecar_json():
    import json

    c = bch_code(3, 3)
    side = json.loads(c.sidecar_json())
    assert side["n"] == 7 and side["k"] == 4 and side["provenance"] == "bch"
