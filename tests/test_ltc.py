import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyltc import f2core, ltc
from cayleyltc.codes import (
    LinearCode,
    bch_code,
    check_square_distance_bound,
    full_code,
    parity_code,
    repetition_code,
    square_code,
)
from cayleyltc.complexes import build_complex
from cayleyltc.f2core import DimensionBudgetError
from cayleyltc.groups import GeneratorSet, cyclic_group, lps_generators, psl2
from cayleyltc.ltc import (
    SquareCodeTester,
    TesterParams,
    check_far_diagnostics,
    decode_experiment,
    decode_trial,
    dispute_counts,
    kappa_experiment,
    kappa_trial,
)
from cayleyltc.spectral import build_M, build_Mpar


def toy(n, a_gens, b_gens=None):
    g = cyclic_group(n)
    A = GeneratorSet(g, a_gens, side="left")
    B = GeneratorSet(g, b_gens if b_gens is not None else a_gens, side="right")
    return build_complex(g, A, B)


@pytest.fixture(scope="module")
def z5_instance():
    X = toy(5, (1, 4))
    C1 = repetition_code(2)
    code = square_code(X, C1)
    return X, C1, code, SquareCodeTester(X, C1, code)


@pytest.fixture(scope="module")
def z12_instance():
    X = toy(12, (1, 11), (5, 7))
    C1 = repetition_code(2)
    code = square_code(X, C1)
    return X, C1, code, SquareCodeTester(X, C1, code)


# -- tester -------------------------------------------------------------------


def test_completeness_random_codewords(z5_instance, z12_instance):
    for X, C1, code, tester in (z5_instance, z12_instance):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = code.random_codeword(rng)
            assert tester.reject_probability(c) == 0.0


def test_single_flip_tnc_complex_rejects_exactly_4(z12_instance):
    X, C1, code, tester = z12_instance
    assert X.check_conditions().tnc
    rng = np.random.default_rng(1)
    c = code.random_codeword(rng).to_bits()
    for s in range(X.n_squares):
        f = c.copy()
        f[s] ^= 1
        assert tester.reject_probability(f) == pytest.approx(4 / X.n_vertices)


def test_single_flip_z3_rejects_everywhere():
    X = toy(3, (1, 2))
    C1 = repetition_code(2)
    code = square_code(X, C1)
    tester = SquareCodeTester(X, C1, code)
    f = np.zeros(X.n_squares, dtype=np.uint8)
    f[0] = 1
    assert tester.reject_probability(f) == 1.0


def test_reject_probability_length_check(z5_instance):
    _, _, _, tester = z5_instance
    with pytest.raises(ValueError, match="length"):
        tester.reject_probability(np.zeros(3, dtype=np.uint8))


def test_rejects_counts_the_vertices_of_its_views(start_instances):
    X = start_instances["z12"].X
    for tester in (start_instances["z12"], SquareCodeTester(X, full_code(2))):
        views = np.zeros((tester.r, 3, tester.r), dtype=np.int64)
        assert tester._rejects(views).shape == (3,)


def tensordot_rejects(tester, f):
    """Reference: the int64 tensordot form of the tester.  A vertex rejects
    iff some column (sum over a) or row (sum over b) of its view has a
    nonzero syndrome mod 2 under C1's checks."""
    views = np.asarray(f, dtype=np.uint8)[tester._grid].astype(np.int64)
    h1 = tester.C1.parity.to_array().astype(np.int64)
    if h1.size == 0:
        return np.zeros(views.shape[1], dtype=bool)
    col_syn = np.tensordot(h1, views, axes=([1], [0])) & 1   # (nh, m, r)
    row_syn = np.tensordot(h1, views, axes=([1], [2])) & 1   # (nh, r, m)
    return col_syn.any(axis=(0, 2)) | row_syn.any(axis=(0, 1))


def words_for_tester(tester, code, rng):
    """Zero, all-ones, a uint8 word of 0..3 (the tester reads the low bit),
    random words, and codewords (all-ones without a code) with 1..64 errors."""
    n = tester.n_squares
    words = [np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8),
             rng.integers(0, 4, n, dtype=np.uint8)]
    words += [(rng.random(n) < p).astype(np.uint8) for p in (0.01, 0.5)]
    for w in (1, 2, 5, 64):
        c = (np.ones(n, dtype=np.uint8) if code is None
             else code.random_codeword(rng).to_bits())
        words.append(c.copy())
        c[rng.choice(n, size=min(w, n), replace=False)] ^= 1
        words.append(c)
    return words


def _bases(r):
    """Base codes of length r: rep, parity, full (no checks), BCH at r = 7,
    and the duals of each."""
    bases = [repetition_code(r), parity_code(r), full_code(r)]
    if r == 7:
        bases.append(bch_code(3, 3))
    return bases + [LinearCode.from_parity_checks(c.generator, "dual") for c in bases]


@pytest.mark.parametrize("name", ["z5", "z12", "z7reg", "p13"])
def test_packed_syndromes_match_the_tensordot_reference(start_instances, name):
    X = toy(16, (1, 15, 3, 13, 5, 11, 8)) if name == "z7reg" else start_instances[name].X
    rng = np.random.default_rng(61)
    for C1 in _bases(X.nA):
        tester = SquareCodeTester(X, C1)
        code = square_code(X, C1)
        for f in words_for_tester(tester, code, rng):
            got = tester.reject_vector(f)
            assert got.dtype == bool
            assert np.array_equal(got, tensordot_rejects(tester, f))


def test_packed_syndromes_span_words_past_64_checks():
    # rep:66 has 65 checks, so each packed check column takes two words
    X = toy(67, tuple(range(1, 67)))
    tester = SquareCodeTester(X, repetition_code(66))
    assert tester._hcols.shape == (66, 2)
    rng = np.random.default_rng(62)
    for f in words_for_tester(tester, None, rng):
        assert np.array_equal(tester.reject_vector(f), tensordot_rejects(tester, f))
    # one flip at slot (64, 64) of vertex 0 fails only check 64 there: the
    # checks are x_j + x_65, so only the second word sees it
    assert tester.C1.parity.to_array()[64].nonzero()[0].tolist() == [64, 65]
    f = np.ones(X.n_squares, dtype=np.uint8)
    f[X.square_id[64, 0, 64]] = 0
    got = tester.reject_vector(f)
    assert got[0] and np.array_equal(got, tensordot_rejects(tester, f))


@pytest.fixture(scope="module")
def lps29():
    """PSL2(F_29) with the LPS(5, 29) generators: r = 6, 12,180 vertices,
    and TNC fails, so some views repeat a square."""
    g = psl2(29)
    S = lps_generators(g, 5)
    return build_complex(g, GeneratorSet(g, S.indices, side="left"),
                         GeneratorSet(g, S.indices, side="right"))


@pytest.fixture(scope="module")
def z32_r15():
    """Z_32 with the 15 generators +-1..+-7 and 16: lines of 15 coordinates,
    so each line code spans two bytes."""
    return toy(32, (1, 31, 2, 30, 3, 29, 4, 28, 5, 27, 6, 26, 7, 25, 16))


def test_line_codes_match_the_tensordot_reference_at_r6(lps29):
    assert not lps29.check_conditions().tnc
    rng = np.random.default_rng(63)
    for C1 in _bases(6):
        tester = SquareCodeTester(lps29, C1)
        for f in words_for_tester(tester, None, rng):
            assert np.array_equal(tester.reject_vector(f), tensordot_rejects(tester, f))


def test_line_codes_span_two_bytes_at_r15(z32_r15):
    rng = np.random.default_rng(64)
    for C1 in _bases(15) + [bch_code(4, 3)]:
        tester = SquareCodeTester(z32_r15, C1)
        assert tester._syn_tables.shape[:2] == (2, 256)
        code = square_code(z32_r15, C1)
        for f in words_for_tester(tester, code, rng):
            assert np.array_equal(tester.reject_vector(f), tensordot_rejects(tester, f))
    # one flip in the second byte of a line: coordinate 8 of vertex 0's row 0
    tester = SquareCodeTester(z32_r15, bch_code(4, 3))
    f = np.zeros(z32_r15.n_squares, dtype=np.uint8)
    f[z32_r15.square_id[0, 0, 8]] = 1
    got = tester.reject_vector(f)
    assert got[0] and np.array_equal(got, tensordot_rejects(tester, f))


def edge_disagreements(tester, wgrid):
    """Boolean per edge: the two endpoint views in the (a, g, b) grid wgrid
    differ on the edge, compared through their line codes."""
    out = np.zeros(tester.X.n_edges, dtype=bool)
    out[tester._disputed(tester._line_codes(wgrid), np.arange(tester.X.n_edges))] = True
    return out


def edge_ids_differ(X, lines, e):
    """Reference: edge e's two endpoints carry different ids on it, lines[l, g]
    the id of vertex g's row l (l < r) or column l - r."""
    t, pos, g = (int(x) for x in X.edge_rep[e])
    if t == 0:
        return lines[pos, g] != lines[int(X.a_inv_pos[pos]), int(X.left_perms[pos, g])]
    r = X.nA
    return lines[r + pos, g] != lines[r + int(X.b_inv_pos[pos]), int(X.right_perms[pos, g])]


@pytest.mark.parametrize("name", ["z5", "z10", "z12", "p13", "lps29", "z32_r15"])
def test_line_disagreements_match_the_per_edge_references(request, name):
    # z5 and z10 fail TNC; lps29 has r = 6 and z32_r15 two-byte line codes
    if name in ("lps29", "z32_r15"):
        X = request.getfixturevalue(name)
    else:
        X = request.getfixturevalue("start_instances")[name].X
    tester = SquareCodeTester(X, repetition_code(X.nA))
    assert not tester._edge_slots.flags.writeable
    rng = np.random.default_rng(65)
    for density in (0.02, 0.5, 0.98):
        wgrid = (rng.random((X.nA, X.n_vertices, X.nA)) < density).astype(np.uint8)
        ref = [edge_view_differs(X, wgrid, e) for e in range(X.n_edges)]
        assert edge_disagreements(tester, wgrid).tolist() == ref
    for dtype, hi in ((np.int8, 3), (np.int16, 1000), (np.int64, 2)):
        lines = rng.integers(-1, hi, (2 * X.nA, X.n_vertices)).astype(dtype)
        ref = [edge_ids_differ(X, lines, e) for e in range(X.n_edges)]
        assert (tester._disputed(lines, np.arange(X.n_edges)).tolist()
                == np.flatnonzero(ref).tolist())
        edges = np.flatnonzero(rng.random(X.n_edges) < 0.5)
        assert tester._disputed(lines, edges).tolist() == [e for e in edges if ref[e]]


# -- decoder ------------------------------------------------------------------


def test_decode_codeword_zero_iterations(z5_instance):
    X, C1, code, tester = z5_instance
    rng = np.random.default_rng(3)
    c = code.random_codeword(rng)
    out = tester.decode(c)
    assert out.kind == "codeword"
    assert out.iterations == 0
    assert out.word == c


def test_decode_single_flip_recovers(z5_instance):
    X, C1, code, tester = z5_instance
    rng = np.random.default_rng(4)
    c = code.random_codeword(rng)
    for s in range(X.n_squares):
        f = c.to_bits().copy()
        f[s] ^= 1
        out = tester.decode(f)
        assert out.kind == "codeword"
        assert out.word == c


def test_decode_success_contract_random(z12_instance):
    X, C1, code, tester = z12_instance
    rng = np.random.default_rng(5)
    r = X.nA
    for _ in range(300):
        c = code.random_codeword(rng).to_bits()
        w = int(rng.integers(1, 4))
        e = np.zeros(X.n_squares, dtype=np.uint8)
        e[rng.choice(X.n_squares, size=w, replace=False)] = 1
        f = c ^ e
        D = tester.reject_probability(f)
        out = tester.decode(f)
        assert out.delta_initial <= 2 * D * X.n_edges + 1e-9
        assert out.iterations <= out.delta_initial
        if out.kind == "codeword":
            dist = (out.word.to_bits() != f).sum() / X.n_squares
            assert dist <= (4 + 8 * r) * D + 1e-9
            assert tester.accepts_everywhere(out.word)
        else:
            diag = check_far_diagnostics(X, out, 1, 1, 1, 1)  # delta1=1, sigma1=1
            assert diag["dispute_edge_bound_holds"]
            assert diag["link_bound_holds"]


def test_decode_monotone_delta_trace(z12_instance):
    X, C1, code, tester = z12_instance
    rng = np.random.default_rng(6)
    c = code.random_codeword(rng).to_bits()
    e = np.zeros(X.n_squares, dtype=np.uint8)
    e[rng.choice(X.n_squares, size=3, replace=False)] = 1
    out = tester.decode(c ^ e)
    trace = out.delta_trace
    assert all(trace[i + 1] < trace[i] for i in range(len(trace) - 1))


def test_decode_two_phase_cut_is_far():
    # two codeword phases glued across a sparse cut on a long cycle; no
    # single-vertex move reduces Delta, so the decoder must answer far
    X = toy(20, (1, 19))
    C1 = repetition_code(2)
    code = square_code(X, C1)
    tester = SquareCodeTester(X, C1, code)
    f = np.zeros(X.n_squares, dtype=np.uint8)
    # squares of the toy cycle form one orbit s_g = [1, g, 1]; set an arc to 1
    for g in range(10):
        s = X.canonical_square(0, g, 0)
        f[s] = 1
    out = tester.decode(f)
    assert out.kind == "far"
    assert len(out.disputed_edges) == 4
    diag = check_far_diagnostics(X, out, 1, 1, 1, 1)
    assert diag["dispute_edge_bound_holds"]
    assert diag["link_bound_holds"]


def test_decode_deterministic(z12_instance):
    X, C1, code, tester = z12_instance
    rng = np.random.default_rng(7)
    c = code.random_codeword(rng).to_bits()
    e = np.zeros(X.n_squares, dtype=np.uint8)
    e[rng.choice(X.n_squares, size=4, replace=False)] = 1
    f = c ^ e
    out1 = tester.decode(f)
    out2 = tester.decode(f)
    assert out1.kind == out2.kind
    assert out1.delta_trace == out2.delta_trace
    if out1.kind == "codeword":
        assert out1.word == out2.word


def test_nearest_codeword_tie_breaks_lexicographically(z12_instance):
    X, C1, code, tester = z12_instance
    # a view with exactly half the slots flipped ties 0000 against 1111;
    # the lexicographically least grid (all zeros) must win
    tester._ensure_tables()
    g = 0
    grid = X.squares_of_vertex(g)
    f = np.zeros(X.n_squares, dtype=np.uint8)
    f[grid[0, 0]] = 1
    f[grid[0, 1]] = 1
    ci = tester.nearest_local_codeword(f, g)
    assert not tester._cand_flat[ci].any()


def test_decode_budget_refusal():
    X = toy(13, (1, 12, 2, 11, 3, 10))
    C1 = parity_code(6)          # k1^2 = 25 > 20
    tester = SquareCodeTester(X, C1)
    f = np.zeros(X.n_squares, dtype=np.uint8)
    with pytest.raises(DimensionBudgetError, match="budget"):
        tester.decode(f)


def test_full_space_always_accepts():
    X = toy(5, (1, 4))
    tester = SquareCodeTester(X, full_code(2))
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = rng.integers(0, 2, size=X.n_squares, dtype=np.uint8)
        assert tester.reject_probability(f) == 0.0


# -- counting diagnostics -----------------------------------------------------


def test_counts_empty_R(z5_instance):
    X, _, _, _ = z5_instance
    counts = dispute_counts(X, np.array([], dtype=np.int64))
    for v in counts.values():
        assert (v == 0).all()


def test_counting_identities_match_operators(z5_instance):
    X, _, _, _ = z5_instance
    r = X.nA
    M = build_M(X)
    Mpar = build_Mpar(X)
    rng = np.random.default_rng(9)
    for _ in range(100):
        size = int(rng.integers(1, X.n_edges + 1))
        R = rng.choice(X.n_edges, size=size, replace=False)
        ind = np.zeros(X.n_edges)
        ind[R] = 1.0
        counts = dispute_counts(X, R)
        assert np.abs(counts["npar_edge"] - r * Mpar.matvec(ind)).max() < 1e-9
        assert np.abs(counts["n2_edge"] - 8 * r * r * M.matvec(ind)).max() < 1e-9


def test_n2_dominates_n2prime(z12_instance):
    X, _, _, _ = z12_instance
    rng = np.random.default_rng(10)
    R = rng.choice(X.n_edges, size=8, replace=False)
    counts = dispute_counts(X, R)
    assert (counts["n2_vertex"] >= counts["n2prime_vertex"]).all()


def test_local_assignment_glued_codewords():
    # two codeword phases glued across a cut: every local view is valid but
    # Delta > 0, exactly the far-but-locally-consistent configuration
    X = toy(20, (1, 19))
    C1 = repetition_code(2)
    code = square_code(X, C1)
    tester = SquareCodeTester(X, C1, code)
    phase = np.array([1 <= g <= 10 for g in range(20)], dtype=np.uint8)
    wgrid = np.broadcast_to(phase[None, :, None], (2, 20, 2)).copy()
    assert int(edge_disagreements(tester, wgrid).sum()) == 4
    assert all(local_view_valid(tester, wgrid, g) for g in range(20))


def test_local_assignment_from_nearest_matches_decoder_start(z12_instance):
    X, C1, code, tester = z12_instance
    rng = np.random.default_rng(21)
    c = code.random_codeword(rng).to_bits()
    e = np.zeros(X.n_squares, dtype=np.uint8)
    e[rng.choice(X.n_squares, size=2, replace=False)] = 1
    f = c ^ e
    wgrid = tester._grid_of(tester.nearest_local_codewords(f))
    out = tester.decode(f)
    assert out.delta_initial == int(edge_disagreements(tester, wgrid).sum())


# -- tester params and kappa experiments -------------------------------------


def test_tester_params_bounds():
    p = TesterParams(r=6, delta1=0.5, sigma1=0.5, lam=0.01)
    assert p.query_count == 36
    expected = (0.5 * 0.5 / 16.5 - 0.01) / 24
    assert p.kappa_proof == pytest.approx(expected)
    assert p.kappa_statement > p.kappa_proof
    assert p.hypotheses_hold


@pytest.mark.parametrize("delta1, sigma1", [(Fraction(1, 3), Fraction(2, 3)),
                                             (Fraction(1, 2), Fraction(1, 2))])
def test_tester_hypotheses_are_exact_one_ulp_from_the_threshold(delta1, sigma1):
    # lambda < sigma1 delta1 / (16 + sigma1) decided in Fractions: the float
    # just below the threshold passes and the float just above fails, and
    # the reported fields are float evaluations
    t = sigma1 * delta1 / (16 + sigma1)
    below = float(t) if Fraction(float(t)) < t else math.nextafter(float(t), -math.inf)
    above = math.nextafter(below, math.inf)
    assert Fraction(below) < t < Fraction(above)
    floats = float(sigma1) * float(delta1) / (16 + float(sigma1))
    for lam, holds in ((below, True), (above, False)):
        params = TesterParams(r=4, delta1=delta1, sigma1=sigma1, lam=lam)
        assert params.hypotheses_hold is holds
        assert params.to_dict() == TesterParams(
            4, float(delta1), float(sigma1), lam).to_dict() | {"hypotheses_hold": holds}
        assert params.kappa_proof == (floats - lam) / 16
    # at 1/3 and 2/3 the float formula rounds to the float below the
    # threshold, so a float comparison would refuse it
    assert (below < floats) is (delta1 == Fraction(1, 2))


def test_kappa_trial_membership_check(z5_instance):
    X, C1, code, tester = z5_instance
    rec = kappa_trial(tester, code, seed=11, trial_index=0, weight=1,
                      certified_radius=5.0)
    assert rec["certified"]
    assert rec["D"] > 0
    assert not rec["in_code"]


def test_kappa_trial_refuses_an_accepted_word_outside_the_code(z5_instance):
    # every word is accepted by a full:2 tester, but a weight-1 corruption
    # is outside the rep:2 square code: D = 0 without membership must fail
    X, C1, code, _ = z5_instance
    accepting = SquareCodeTester(X, full_code(2))
    with pytest.raises(AssertionError, match="certify membership"):
        kappa_trial(accepting, code, seed=11, trial_index=0, weight=1,
                    certified_radius=5.0)


def test_kappa_experiment_z5_exhaustive_flips(z5_instance):
    X, C1, code, tester = z5_instance
    lam = float(np.cos(2 * np.pi / 5))
    params = TesterParams(r=2, delta1=1.0, sigma1=1.0, lam=lam)
    report = kappa_experiment(tester, code, params, trials=50, weights=(1, 1),
                              seed=12)
    # every weight-1 corruption flips one square seen by exactly 3 vertices
    assert report["kappa_hat"] == pytest.approx(3.0)
    assert report["radius_kind"] == "exact"
    assert report["n_certified"] == 50
    # direct oracle: min over squares of (#rejecting vertices)/|V| * |S|
    best = min(
        tester.reject_probability(np.eye(X.n_squares, dtype=np.uint8)[s]) * X.n_squares
        for s in range(X.n_squares))
    assert report["kappa_hat"] == pytest.approx(best)


def test_kappa_experiment_rows_are_trials_run_alone(z5_instance):
    # each row is its trial run alone on a fresh tester, so no row depends
    # on the trials before it
    X, C1, code, tester = z5_instance
    params = TesterParams(r=2, delta1=1.0, sigma1=1.0, lam=0.9)
    report = kappa_experiment(tester, code, params, trials=24, weights=(1, 2), seed=13)
    radius = report["radius"]
    assert report["rows"] == [
        kappa_trial(SquareCodeTester(X, C1, code), code, 13, i, 1 + i % 2, radius)
        for i in range(24)]


def test_kappa_experiment_rejects_bad_weights(z5_instance):
    X, C1, code, tester = z5_instance
    params = TesterParams(r=2, delta1=1.0, sigma1=1.0, lam=0.9)
    with pytest.raises(ValueError):
        kappa_experiment(tester, code, params, trials=1, weights=(0, 1), seed=0)


def test_kappa_experiment_bound_relative_radius(p13_instance):
    # the psl2(13) square code has k = 1096, far beyond the exhaustive
    # distance budget, so certification falls back to the distance
    # proposition bound and is labeled accordingly
    X, C1, code, tester, lam = p13_instance
    params = TesterParams(r=4, delta1=0.5, sigma1=0.5, lam=lam)
    report = kappa_experiment(tester, code, params, trials=4, weights=(1, 2),
                              seed=14)
    assert report["radius_kind"] == "bound-relative"
    # delta1 = 0.5 < lambda makes the bound radius 0: trials uncertified
    assert report["n_certified"] == 0
    assert report["kappa_hat"] is None


def test_kappa_experiment_bound_radius_clamps_a_negative_lambda(p13_instance):
    # the radius is check_square_distance_bound's, with lambda < 0 clamped
    # to 0: (1/4) (1/2)^2 (1/2) 4368 = 136.5, not 163.8 at lambda = -0.1
    X, C1, code, tester, _ = p13_instance
    params = TesterParams(r=4, delta1=0.5, sigma1=0.5, lam=-0.1)
    report = kappa_experiment(tester, code, params, trials=4, weights=(1, 2),
                              seed=14)
    assert report["radius_kind"] == "bound-relative"
    assert report["radius"] == check_square_distance_bound(
        code, 0.5, -0.1)["bound"] == 136.5
    assert report["n_certified"] == 4


def test_kappa_experiment_runs_no_syndrome_or_elimination(monkeypatch, p13_instance):
    # membership re-encodes on the code's information set, and the exact
    # distance is refused before any rows are built
    def called(*args):
        raise AssertionError("a kappa trial ran a syndrome or an elimination")

    X, C1, code, tester, lam = p13_instance
    params = TesterParams(r=4, delta1=0.5, sigma1=0.5, lam=lam)
    rows = [kappa_trial(tester, code, 15, i, 1 + i % 3, 0.0) for i in range(8)]
    for name in ("row_basis", "_echelon_words"):
        monkeypatch.setattr(f2core, name, called)
    monkeypatch.setattr(f2core.BitMatrix, "matvec", called)
    report = kappa_experiment(tester, code, params, trials=8, weights=(1, 3), seed=15)
    assert report["radius_kind"] == "bound-relative"
    assert report["rows"] == rows


def reference_kappa_trial(tester, code, seed, index, weight):
    """Reference: trial index's rejects and membership of the word c + e
    itself, c the codeword its stream draws, tested at every vertex."""
    rng = np.random.default_rng([seed, index])
    f = code.random_codeword(rng).to_bits() ^ ltc.random_error(rng, code.n, weight)
    return int(tester._rejects(f[tester._grid]).sum()), code.contains(f2core.BitVector(f))


def kappa_trial_pair(tester, code, seed, index, weight):
    """(rejects, in_code) of kappa_trial's row."""
    row = kappa_trial(tester, code, seed, index, weight, 0.0)
    return round(row["D"] * tester.X.n_vertices), row["in_code"]


@pytest.mark.parametrize("name", ["z5", "z12", "p13"])
def test_error_only_kappa_trials_match_the_codeword_plus_error_trials(
        toy_instances, p13_instance, name):
    # p13's weights past |V| / 4 = 273 take the whole-array tester path
    X, _, code, tester = (p13_instance[:4] if name == "p13" else toy_instances[name])
    weights = [*range(1, 65), 300, 2000] if name == "p13" else range(1, code.n + 1)
    for index, w in enumerate(weights):
        assert (kappa_trial_pair(tester, code, 21, index, w)
                == reference_kappa_trial(tester, code, 21, index, w))


@pytest.mark.parametrize("name", ["z5", "z12", "p13"])
def test_a_codeword_error_is_in_the_code_and_accepted(toy_instances, p13_instance,
                                                     monkeypatch, name):
    # each error a nonzero generator row: f = c + e is a codeword, so the
    # independent membership check must say so, with D = 0; weight w >= 1,
    # as every trial's, draws row w - 1
    X, _, code, tester = (p13_instance[:4] if name == "p13" else toy_instances[name])
    rows = code.generator.to_array()
    monkeypatch.setattr(ltc, "random_error", lambda rng, n, w: rows[(w - 1) % len(rows)])
    for index in range(2 * len(rows[:8])):
        pair = kappa_trial_pair(tester, code, 22, index, index + 1)
        assert pair == (0, True) == reference_kappa_trial(tester, code, 22, index, index + 1)


def test_a_kappa_trial_encodes_no_codeword(z12_instance, monkeypatch):
    X, C1, code, tester = z12_instance
    expected = kappa_experiment(tester, code, TesterParams(2, 1.0, 1.0, 0.9),
                                trials=12, weights=(1, 4), seed=23)

    def encoded(*args):
        raise AssertionError("a kappa trial encoded a codeword")

    # the only encoding left is the membership check's, one per trial
    calls = []
    encode = LinearCode._encode
    monkeypatch.setattr(LinearCode, "random_codeword", encoded)
    monkeypatch.setattr(LinearCode, "_encode", lambda self, c: calls.append(c) or encode(self, c))
    assert kappa_experiment(tester, code, TesterParams(2, 1.0, 1.0, 0.9),
                            trials=12, weights=(1, 4), seed=23) == expected
    assert len(calls) == 12


@pytest.mark.parametrize("ulps, holds", [(0, True), (1, False)])
def test_the_kappa_assertion_is_exact_at_equality(z5_instance, ulps, holds):
    # every weight-1 trial on z5 gives kappa_hat = 3 * 5 / (5 * 1) = 3, and
    # sigma1 = 16, delta1 = 1 give kappa_proof = (1/2 - lambda) / 8, which is 3
    # exactly at lambda = -23.5; one float below, kappa_proof exceeds 3 by
    # less than the 1e-12 the float comparison forgave, and is refused
    X, C1, code, tester = z5_instance
    lam = -23.5
    for _ in range(ulps):
        lam = float(np.nextafter(lam, -np.inf))
    params = TesterParams(r=2, delta1=1.0, sigma1=16.0, lam=lam)
    assert params.hypotheses_hold and 0 <= params.kappa_proof - 3.0 < 1e-12

    def run():
        return kappa_experiment(tester, code, params, trials=10, weights=(1, 1), seed=12)

    if holds:
        assert run()["kappa_hat"] == params.kappa_proof == 3.0
    else:
        with pytest.raises(AssertionError, match="below the proof bound"):
            run()


@pytest.mark.parametrize("name", ["z5", "z12", "p13"])
def test_the_exact_kappa_decision_agrees_with_the_float_one(toy_instances, p13_instance,
                                                           name):
    # lambda sweeps kappa_proof across the trials' kappa_hat; the hypotheses
    # hold throughout, and the float comparison with its 1e-12 slack is the
    # reference away from equality
    X, _, code, tester = (p13_instance[:4] if name == "p13" else toy_instances[name])
    trials = 16 if name == "p13" else 8
    base = kappa_experiment(tester, code, TesterParams(X.nA, 1.0, 16.0, -0.5),
                            trials=trials, weights=(1, 2), seed=25)
    assert base["n_certified"] == trials
    for lam in np.linspace(-8 * X.nA * base["kappa_hat"], 0.4, 9)[1:]:
        params = TesterParams(X.nA, 1.0, 16.0, float(lam))
        passes = base["kappa_hat"] >= params.kappa_proof - 1e-12
        assert params.hypotheses_hold and abs(base["kappa_hat"] - params.kappa_proof) > 1e-9
        try:
            kappa_experiment(tester, code, params, trials=trials, weights=(1, 2), seed=25)
        except AssertionError:
            assert not passes
        else:
            assert passes


# -- whole-array start state against the per-vertex reference -----------------


@functools.cache
def vertex_candidates(tester):
    """Reference: per vertex, its distinct squares, their first slots in
    its view, and the ids of the tensor codewords that are constant on each
    fiber (slots carrying one square).  The ids index the codewords that
    are fiber-constant at some vertex, in lexicographic order: the tester's
    candidates, on which its pattern penalty is 0 exactly at the vertex's."""
    words = tester.C0.codewords()
    words = words[np.lexsort(words.T[::-1])]
    views = []
    for g in range(tester.X.n_vertices):
        flat = tester.X.squares_of_vertex(g).ravel()
        _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        views.append((flat[first], first, (words == words[:, first][:, inverse]).all(axis=1)))
    kept = np.any([ok for *_, ok in views], axis=0)
    tester._ensure_tables()
    assert np.array_equal(words[kept], tester._cand_flat)
    for g, (*_, ok) in enumerate(views):
        assert np.array_equal(tester._outside[tester._pattern_of[g]] == 0, ok[kept])
    ids = np.cumsum(kept) - 1
    return [(squares, first, ids[ok]) for squares, first, ok in views]


def per_vertex_nearest(tester, f_bits):
    """Reference: every vertex on its own takes the first of its candidates
    at least distance on its distinct squares."""
    cand = tester._cand_flat
    return np.array([int(ok[np.argmin((cand[ok][:, first] != f_bits[squares]).sum(axis=1))])
                     for squares, first, ok in vertex_candidates(tester)])


@pytest.fixture(scope="module")
def start_instances(toy_instances, p13_instance):
    out = {name: inst[3] for name, inst in toy_instances.items()}
    out["p13"] = p13_instance[3]
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["z5", "z12", "z20", "z10", "p13"]),
       st.floats(0.001, 0.9), st.integers(0, 2**32 - 1), st.booleans())
def test_nearest_local_codewords_match_per_vertex(start_instances, name,
                                                  density, seed, near_code):
    # near_code: a codeword with one flip, so the views that miss the flipped
    # square are local codewords and take the key lookup; else a random word
    tester = start_instances[name]
    rng = np.random.default_rng(seed)
    f = (rng.random(tester.n_squares) < density).astype(np.uint8)
    if near_code:
        f = tester.code.random_codeword(rng).to_bits()
        f[rng.integers(tester.n_squares)] ^= 1
        assert not tester.reject_vector(f).all()
    ci = tester.nearest_local_codewords(f)
    assert np.array_equal(ci, per_vertex_nearest(tester, f))
    for g in rng.choice(tester.X.n_vertices, size=3):
        assert tester.nearest_local_codeword(f, int(g)) == ci[g]


def test_repeated_squares_restrict_the_candidates(start_instances):
    # TNC fails on z5 and z10 (abelian groups): every view repeats a square,
    # and on z10 only the fiber-constant quarter of C1 x C1 remains
    for name, n_cand in (("z5", 2), ("z10", 2**14)):
        tester = start_instances[name]
        tester._ensure_tables()
        assert tester._outside.shape == (1, n_cand) and not tester._outside.any()
        assert tester._first.shape == (1, tester.r ** 2)
        assert tester._first.sum() < tester.r ** 2


def test_p13_has_13_fiber_patterns(p13_instance):
    tester = p13_instance[3]
    tester._ensure_tables()
    assert tester._first.shape == (13, 16) and tester._outside.shape == (13, 512)
    assert tester._pattern_of.shape == (p13_instance[0].n_vertices,)
    assert np.bincount(tester._pattern_of).min() > 0


def slot_pair_keys(X):
    """Reference: per vertex, each slot's first slot that carries the same
    square, from all r^4 slot pairs of its view."""
    flat = X.square_id.transpose(1, 0, 2).reshape(X.n_vertices, -1)
    keys = np.empty(flat.shape, dtype=np.intp)
    for lo in range(0, len(flat), 1024):
        block = flat[lo:lo + 1024]
        keys[lo:lo + 1024] = (block[:, :, None] == block[:, None, :]).argmax(axis=1)
    return keys


@pytest.mark.parametrize("name", ["z5", "p13", "x41"])
def test_sorted_keys_equal_the_slot_pair_keys(start_instances, lps41, name):
    # the keys fix the patterns, their first slots and their candidates
    tester = (SquareCodeTester(build_complex(lps41.group, GeneratorSet(
        lps41.group, lps41.indices, side="left"), GeneratorSet(
        lps41.group, lps41.indices, side="right")), repetition_code(6))
        if name == "x41" else start_instances[name])
    keys = slot_pair_keys(tester.X)
    patterns, first_vertex, pattern_of = np.unique(
        keys, axis=0, return_index=True, return_inverse=True)
    tester._ensure_tables()
    assert np.array_equal(tester._pattern_of, pattern_of.ravel())
    assert np.array_equal(tester._first, (patterns == np.arange(tester.r ** 2)).astype(float))
    words = tester._cand_flat
    assert np.array_equal(tester._outside == 0, np.stack(
        [(words[:, key] == words).all(axis=1) for key in patterns]))
    assert len(patterns) == {"z5": 1, "p13": 13, "x41": 43}[name]


def test_candidates_are_the_codewords_fiber_constant_somewhere(start_instances, lps29):
    # vertex_candidates asserts the candidate table and each pattern's
    # penalty against its own per-vertex fiber-constant sets
    rep6 = SquareCodeTester(lps29, repetition_code(6))
    for tester, n_cand in ((start_instances["p13"], 512), (start_instances["z10"], 2**14),
                           (rep6, 2)):
        assert len(vertex_candidates(tester)) == tester.X.n_vertices
        assert len(tester._cand_flat) == n_cand
    assert len(start_instances["p13"]._outside) == 13
    assert (start_instances["p13"]._outside > 0).any()


def test_nearest_at_one_vertex_of_every_p13_pattern(start_instances):
    tester = start_instances["p13"]
    rng = np.random.default_rng(26)
    for density in (0.05, 0.3, 0.6):
        f = (rng.random(tester.n_squares) < density).astype(np.uint8)
        ref = per_vertex_nearest(tester, f)
        for p in range(len(tester._outside)):
            g = int(np.flatnonzero(tester._pattern_of == p)[0])
            assert tester.nearest_local_codeword(f, g) == ref[g]


def test_blocks_that_split_and_mix_patterns_match_the_references(start_instances,
                                                                  monkeypatch):
    # 24 vertices a nearest-codeword block and 3 hot vertices an evaluation
    # block, so both passes split and some blocks mix fiber patterns
    from cayleyltc import ltc

    tester = start_instances["p13"]
    tester._ensure_tables()
    monkeypatch.setattr(ltc, "DECODE_BLOCK", 24 * 512)
    n = tester.X.n_vertices
    assert sum(len(np.unique(tester._pattern_of[lo:lo + 24])) > 1
               for lo in range(0, n, 24)) > 1
    rng = np.random.default_rng(27)
    for density in (0.02, 0.4):
        f = (rng.random(tester.n_squares) < density).astype(np.uint8)
        assert np.array_equal(tester._nearest(f, np.arange(n)), per_vertex_nearest(tester, f))
    f = tester.code.random_codeword(rng).to_bits()
    f[rng.choice(tester.n_squares, size=40, replace=False)] ^= 1
    assert_decodes_like_reference(tester, f)


def test_from_nearest_is_the_decoder_start_state(start_instances):
    for name in ("z5", "z12", "z10", "p13"):
        tester = start_instances[name]
        rng = np.random.default_rng(22)
        for _ in range(3):
            f = (rng.random(tester.n_squares) < 0.1).astype(np.uint8)
            ci = tester.nearest_local_codewords(f)
            assert np.array_equal(ci, per_vertex_nearest(tester, f))
            wgrid = tester._grid_of(ci)
            ref = tester._cand_flat[ci]
            for g in range(tester.X.n_vertices):
                assert np.array_equal(wgrid[:, g, :].ravel(), ref[g])
            assert (tester.decode(f).delta_initial
                    == int(edge_disagreements(tester, wgrid).sum()))


def test_decode_experiment_summarises_its_trials(z12_instance):
    X, C1, code, tester = z12_instance
    one = decode_experiment(tester, code, trials=12, weights=(1, 3), seed=23)
    rows = one["rows"]
    assert [r["weight"] for r in rows] == [1 + i % 3 for i in range(12)]
    assert str(rows[5]) == str(decode_trial(tester, code, 23, 5, 3))
    assert one["n_far"] == sum(r["outcome"] == "far" for r in rows)
    assert one["all_contracts_ok"] == all(r["contract_ok"] for r in rows)


@pytest.mark.parametrize("delta0, wrong, ok", [
    (3, 5, True),           # Delta_0 |V| = 2 rej |E| and wt |V| = (4 + 8r) rej |S|
    (4, 5, False),          # one disputed edge over the first bound
    (3, 6, False),          # one wrong bit over the second
])
def test_decode_contract_holds_with_equality(monkeypatch, delta0, wrong, ok):
    # |V| = 24, |E| = 36, |S| = 10, r = 1 and rej = 1: 2 rej |E| / |V| = 3 and
    # (4 + 8r) rej |S| / |V| = 5; the contract is decided in integers
    from types import SimpleNamespace

    from cayleyltc import ltc

    f = np.zeros(10, dtype=np.uint8)
    w = np.zeros(10, dtype=np.uint8)
    w[:wrong] = 1
    out = SimpleNamespace(kind="codeword", word=f2core.BitVector(w), iterations=0,
                          delta_initial=delta0)
    tester = SimpleNamespace(X=SimpleNamespace(n_vertices=24, n_edges=36), r=1,
                             decode=lambda bits: out)
    monkeypatch.setattr(ltc, "_trial_word", lambda *args: (f, 1))
    row = decode_trial(tester, SimpleNamespace(n=10), 0, 0, 1)
    assert row["contract_ok"] is ok
    assert (row["D"], row["dist_to_output"], row["dist_bound"]) == (1 / 24, wrong / 10,
                                                                    12 / 24)


# -- per-vertex references ------------------------------------------------------


def tensor_membership(C1, grid):
    """Reference: every row and every column of the r x r 0/1 grid is in C1."""
    r = C1.n
    grid = np.asarray(grid, dtype=np.uint8).reshape(r, r)
    H = C1.parity.to_array()
    if H.size == 0:
        return True
    return (not ((H @ grid.T) % 2).any()) and (not ((H @ grid) % 2).any())


def local_view_valid(tester, wgrid, g):
    """Reference: W_g is fiber-constant and a tensor codeword, one vertex."""
    grid = wgrid[:, g, :]
    flat = tester._grid[:, g, :].ravel()
    vals = grid.ravel()
    order = np.argsort(flat, kind="stable")
    fs, vs = flat[order], vals[order]
    same = fs[1:] == fs[:-1]
    if (vs[1:][same] != vs[:-1][same]).any():
        return False
    return tensor_membership(tester.C1, grid)


# -- the candidate-id decoder against the per-vertex greedy reference ---------


def edge_view_differs(X, wgrid, e):
    """Reference: the two endpoint views of edge e differ on it."""
    t, pos, g = (int(x) for x in X.edge_rep[e])
    if t == 0:
        ag = int(X.left_perms[pos, g])
        return bool((wgrid[pos, g, :] != wgrid[int(X.a_inv_pos[pos]), ag, :]).any())
    gb = int(X.right_perms[pos, g])
    return bool((wgrid[:, g, pos] != wgrid[:, gb, int(X.b_inv_pos[pos])]).any())


def local_delta(X, wgrid, g, cand_rows):
    """Reference: disputed edges at g for each candidate view at g."""
    r = X.nA
    total = np.zeros(cand_rows.shape[0], dtype=np.int64)
    for a in range(r):
        nbr = wgrid[int(X.a_inv_pos[a]), int(X.left_perms[a, g]), :]
        total += (cand_rows[:, a * r:(a + 1) * r] != nbr[None, :]).any(axis=1)
    for b in range(r):
        nbr = wgrid[:, int(X.right_perms[b, g]), int(X.b_inv_pos[b])]
        total += (cand_rows[:, b::r] != nbr[None, :]).any(axis=1)
    return total


def reference_decode(tester, f_bits):
    """Reference: the greedy decoder on the (a, g, b) bit grid, one vertex
    at a time.  Scan vertices in ascending order, apply the first strictly
    improving best replacement, restart the scan; clean vertices keep their
    cached evaluation.  Returns (kind, iterations, delta_initial,
    delta_trace, word bits or None, disputed edges or None)."""
    X, r, n = tester.X, tester.r, tester.X.n_vertices
    cand = tester._cand_flat
    wgrid = np.ascontiguousarray(
        cand[per_vertex_nearest(tester, f_bits)].reshape(n, r, r).transpose(1, 0, 2))
    disagree = np.array([edge_view_differs(X, wgrid, e) for e in range(X.n_edges)])
    delta = delta0 = int(disagree.sum())
    trace, iterations = [delta], 0
    rows = [cand[ok] for _, _, ok in vertex_candidates(tester)]
    dirty = np.ones(n, dtype=bool)
    cached_gain = np.zeros(n, dtype=np.int64)
    cached_best = np.zeros(n, dtype=np.int64)
    while delta > 0:
        improved = False
        for g in np.nonzero(dirty | (cached_gain < 0))[0]:
            if dirty[g]:
                current = int(disagree[X.edge_at[:, g]].sum())
                if current == 0:
                    cached_gain[g], dirty[g] = 0, False
                    continue
                deltas = local_delta(X, wgrid, g, rows[g])
                cached_best[g] = int(np.argmin(deltas))
                cached_gain[g] = int(deltas[cached_best[g]]) - current
                dirty[g] = False
            if cached_gain[g] >= 0:
                continue
            wgrid[:, g, :] = rows[g][cached_best[g]].reshape(r, r)
            for lbl in range(X.n_labels):
                disagree[X.edge_at[lbl, g]] = edge_view_differs(X, wgrid, X.edge_at[lbl, g])
                dirty[X.vert_image[lbl, g]] = True
            dirty[g] = True
            delta += int(cached_gain[g])
            iterations += 1
            trace.append(delta)
            improved = True
            break
        if not improved:
            break
    assert delta == int(edge_disagreements(tester, wgrid).sum())
    if delta > 0:
        return "far", iterations, delta0, trace, None, np.nonzero(disagree)[0]
    rep = X.square_rep
    return "codeword", iterations, delta0, trace, wgrid[rep[:, 0], rep[:, 1], rep[:, 2]], None


def assert_decodes_like_reference(tester, f):
    """decode(f) against reference_decode on f's low bits."""
    out = tester.decode(f)
    kind, iterations, delta0, trace, word, disputed = reference_decode(
        tester, np.asarray(f, dtype=np.uint8) & 1)
    assert (out.kind, out.iterations, out.delta_initial, out.delta_trace) == (
        kind, iterations, delta0, trace)
    if kind == "codeword":
        assert np.array_equal(out.word.to_bits(), word)
        assert out.disputed_edges is None and trace[-1] == 0
    else:
        assert out.word is None
        assert np.array_equal(out.disputed_edges, disputed)
        assert len(out.disputed_edges) == trace[-1]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["z5", "z12", "z20", "z10", "p13"]),
       st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans())
def test_decode_matches_per_vertex_reference(start_instances, name, seed,
                                             weight, sparse):
    # a codeword with `weight` flips, or a dense random word
    tester = start_instances[name]
    rng = np.random.default_rng(seed)
    if sparse:
        f = tester.code.random_codeword(rng).to_bits()
        f[rng.choice(tester.n_squares, size=min(weight, tester.n_squares),
                     replace=False)] ^= 1
    else:
        f = (rng.random(tester.n_squares) < weight / 120).astype(np.uint8)
    assert_decodes_like_reference(tester, f)


def test_decode_matches_reference_on_the_engineered_far_word(start_instances):
    tester = start_instances["z20"]
    X = tester.X
    f = np.zeros(X.n_squares, dtype=np.uint8)
    for g in range(10):
        f[X.canonical_square(0, g, 0)] = 1
    out = assert_decodes_like_reference(tester, f)
    assert out.kind == "far" and len(out.disputed_edges) == 4


def test_decode_matches_reference_at_a_penalised_pattern(start_instances):
    # p13's patterns hold different candidate sets, and each pattern's
    # penalty bars the others'; corrupt the view of a vertex whose pattern
    # excludes some candidates
    tester = start_instances["p13"]
    tester._ensure_tables()
    penalised = np.flatnonzero((tester._outside > 0).any(axis=1))
    assert penalised.size
    rng = np.random.default_rng(25)
    for p in penalised[:3]:
        g = int(np.flatnonzero(tester._pattern_of == p)[0])
        f = tester.code.random_codeword(rng).to_bits()
        f[np.unique(tester.X.squares_of_vertex(g))[:3]] ^= 1
        assert_decodes_like_reference(tester, f)


def test_decode_matches_reference_on_sparse_lps29_words(lps29):
    # rep:6 at r = 6 with TNC failing.  Flipped views (all or 20 of their
    # squares) make the start state dispute edges; the decoder evaluates it
    # only at their endpoints, the reference at every vertex
    X = lps29
    tester = SquareCodeTester(X, repetition_code(6))
    rng = np.random.default_rng(66)
    kinds = set()
    for n_views, part, weight in ((1, 36, 0), (2, 36, 5), (1, 20, 1), (3, 24, 30)):
        f = np.zeros(X.n_squares, dtype=np.uint8)
        for g in rng.choice(X.n_vertices, size=n_views, replace=False):
            squares = np.unique(X.squares_of_vertex(int(g)))
            f[rng.permutation(squares)[:part * len(squares) // 36]] = 1
        f[rng.choice(X.n_squares, size=weight, replace=False)] ^= 1
        out = assert_decodes_like_reference(tester, f)
        assert out.delta_initial > 0
        kinds.add(out.kind)
    assert "codeword" in kinds


# -- the tester and decoder only where a word's support reaches ----------------


@pytest.fixture(scope="module")
def z200():
    """The 200-cycle with rep:2: an arc of a few squares is a sparse far word."""
    X = toy(200, (1, 199))
    return SquareCodeTester(X, repetition_code(2), square_code(X, repetition_code(2)))


@pytest.fixture(scope="module")
def z64_n2c():
    """Z_64 with generators +-1 and 32: 32 is an involution in B, so N2C fails
    and some squares have class size 2."""
    X = toy(64, (1, 63, 32))
    assert not X.check_conditions().n2c and (X.square_class_size == 2).any()
    return SquareCodeTester(X, repetition_code(3), square_code(X, repetition_code(3)))


def count_local_passes(monkeypatch, tester):
    """A list that gains one entry per support-limited pass of the tester."""
    calls = []
    real = tester.X.vertices_of_squares
    monkeypatch.setattr(tester.X, "vertices_of_squares",
                        lambda s: calls.append(len(s)) or real(s))
    return calls


def assert_like_references(tester, f):
    """reject_vector, nearest_local_codewords and decode of f against the
    tensordot, per-vertex and greedy references, on f's low bits."""
    bits = np.asarray(f, dtype=np.uint8) & 1
    assert np.array_equal(tester.reject_vector(f), tensordot_rejects(tester, bits))
    assert np.array_equal(tester.nearest_local_codewords(f), per_vertex_nearest(tester, bits))
    return assert_decodes_like_reference(tester, f)


def sparse_word(tester, rng, n_squares, n_views=0):
    """Zero outside n_squares random squares and n_views flipped views."""
    X = tester.X
    f = np.zeros(X.n_squares, dtype=np.uint8)
    for g in rng.choice(X.n_vertices, size=n_views, replace=False):
        f[np.unique(X.squares_of_vertex(int(g)))] = 1
    f[rng.choice(X.n_squares, size=n_squares, replace=False)] ^= 1
    return f


@pytest.mark.parametrize("name", ["z12", "p13"])
def test_the_zero_word_and_a_word_of_twos_are_the_zero_word(start_instances, name,
                                                             monkeypatch):
    tester = start_instances[name]
    calls = count_local_passes(monkeypatch, tester)
    for f in (np.zeros(tester.n_squares, dtype=np.uint8),
              np.full(tester.n_squares, 2, dtype=np.uint8)):
        out = assert_like_references(tester, f)
        assert not tester.reject_vector(f).any()
        assert not tester.nearest_local_codewords(f).any()
        assert (out.kind, out.iterations, out.delta_initial) == ("codeword", 0, 0)
        assert out.word.weight() == 0
    assert calls and set(calls) == {0}


def test_the_passes_switch_to_whole_arrays_at_a_quarter_of_the_vertices(
        start_instances, monkeypatch):
    # p13 has 1,092 vertices: 272 set squares take the support-limited
    # passes, 273 the whole arrays, and both give the references' answers
    tester = start_instances["p13"]
    n = tester.X.n_vertices
    rng = np.random.default_rng(71)
    for size, local in ((n // 4 - 1, True), (n // 4, False)):
        calls = count_local_passes(monkeypatch, tester)
        f = sparse_word(tester, rng, size)
        assert_like_references(tester, f)
        assert (size in calls) == local
    # the decoder's edge and vertex sets switch on the vertices off candidate 0
    tester._ensure_tables()
    for size, local in ((n // 4 - 1, True), (n // 4, False)):
        ci = np.zeros(n, dtype=np.int64)
        ci[rng.choice(n, size=size, replace=False)] = 1
        v1, edges = tester._off_zero(ci)
        if local:
            assert np.array_equal(v1, np.flatnonzero(ci))
            assert np.array_equal(edges, np.unique(tester.X.edge_at[:, v1]))
        else:
            assert np.array_equal(v1, np.arange(n))
            assert np.array_equal(edges, np.arange(tester.X.n_edges))


def decode_record(tester, f):
    """reject_vector, nearest_local_codewords and decode of f, as lists."""
    out = tester.decode(f)
    return (tester.reject_vector(f).tolist(), tester.nearest_local_codewords(f).tolist(),
            out.kind, out.delta_trace,
            None if out.word is None else out.word.to_bits().tolist(),
            None if out.disputed_edges is None else out.disputed_edges.tolist())


def test_the_switch_to_whole_arrays_changes_only_the_cost(start_instances, monkeypatch):
    # past the switch the passes read every vertex and edge; forced onto the
    # vertices supp f reaches and V1's edges, they give the same answers
    tester = start_instances["p13"]
    X, n = tester.X, tester.X.n_vertices
    rng = np.random.default_rng(77)
    near = tester.code.random_codeword(rng).to_bits()
    near[rng.choice(tester.n_squares, size=40, replace=False)] ^= 1
    words = [sparse_word(tester, rng, n // 4 - 1), sparse_word(tester, rng, n // 4),
             near, rng.integers(0, 2, tester.n_squares, dtype=np.uint8)]
    assert [4 * int(f.sum()) >= n for f in words] == [False, True, True, True]
    unforced = [decode_record(tester, f) for f in words]

    def off_zero(ci):
        v1 = np.flatnonzero(ci)
        return v1, np.unique(X.edge_at[:, v1])

    monkeypatch.setattr(tester, "_reached",
                        lambda bits: X.vertices_of_squares(np.flatnonzero(bits)))
    monkeypatch.setattr(tester, "_off_zero", off_zero)
    for f, record in zip(words, unforced):
        assert_like_references(tester, f)
        assert decode_record(tester, f) == record
    assert {record[2] for record in unforced} == {"codeword", "far"}


def test_sparse_far_words_match_the_reference(z200, monkeypatch):
    # arcs of squares on the 200-cycle: two phases, so the word is far, and
    # the disputed edges at the arc ends are the reference's
    X = z200.X
    calls = count_local_passes(monkeypatch, z200)
    rng = np.random.default_rng(72)
    kinds = []
    for length in (10, 17, 30):
        f = np.zeros(X.n_squares, dtype=np.uint8)
        start = int(rng.integers(X.n_vertices))
        for g in range(start, start + length):
            f[X.canonical_square(0, g % X.n_vertices, 0)] = 1
        f[rng.choice(X.n_squares, size=2, replace=False)] ^= 1
        out = assert_like_references(z200, f)
        kinds.append(out.kind)
        if out.kind == "far":
            assert 0 < len(out.disputed_edges) < 20
    assert "far" in kinds and calls


def test_sparse_words_match_the_references_where_n2c_fails(z64_n2c, monkeypatch):
    calls = count_local_passes(monkeypatch, z64_n2c)
    rng = np.random.default_rng(73)
    for n_squares, n_views in ((1, 0), (3, 0), (0, 1), (2, 1), (15, 0)):
        assert_like_references(z64_n2c, sparse_word(z64_n2c, rng, n_squares, n_views))
    assert calls


def test_sparse_lps29_words_match_the_references(lps29, monkeypatch):
    # rep:6 at r = 6, TNC failing: views repeat squares
    tester = SquareCodeTester(lps29, repetition_code(6))
    calls = count_local_passes(monkeypatch, tester)
    rng = np.random.default_rng(74)
    for n_squares, n_views in ((1, 0), (40, 0), (0, 1), (7, 2)):
        assert_like_references(tester, sparse_word(tester, rng, n_squares, n_views))
    assert calls


@pytest.mark.parametrize("name", ["p13", "lps29"])
def test_decode_reads_the_low_bit_of_each_square(start_instances, lps29, name):
    # entries 2 and 3 read as 0 and 1, as in the tester
    tester = (start_instances["p13"] if name == "p13"
              else SquareCodeTester(lps29, repetition_code(6)))
    rng = np.random.default_rng(75)
    f = np.zeros(tester.n_squares, dtype=np.uint8)
    f[int(rng.integers(tester.n_squares))] = 3
    out = tester.decode(f)
    assert (out.kind, out.delta_initial) == ("codeword", 0)
    assert out.word == tester.decode(f & 1).word
    words = [sparse_word(tester, rng, 6, 1)]
    if name == "p13":      # a dense word; lps29's reference decode is slow
        words.append(rng.integers(0, 2, tester.n_squares))
    for f in words:
        f = (f + 2 * rng.integers(0, 2, tester.n_squares)).astype(np.uint8)
        low = assert_like_references(tester, f)
        bits = tester.decode(f & 1)
        assert (low.kind, low.iterations, low.delta_trace) == (
            bits.kind, bits.iterations, bits.delta_trace)


def test_words_of_another_length_are_refused(z12_instance):
    X, _, _, tester = z12_instance
    for length in (X.n_squares + 5, X.n_squares - 1):
        f = np.zeros(length, dtype=np.uint8)
        for call in (tester.decode, tester.nearest_local_codewords,
                     lambda f: tester.nearest_local_codeword(f, 0)):
            with pytest.raises(ValueError, match=rf"word length {length} != \|S\| = 12"):
                call(f)


@pytest.mark.parametrize("name", ["z20", "z200"])
def test_zero_delta_views_that_disagree_are_refused(start_instances, z200, name,
                                                    monkeypatch):
    # with every edge reported agreed, the all-ones views inside an arc and
    # the zero views around it pass the Delta counts; the final check, over
    # every vertex on z20 and where supp F reaches on z200, must refuse them
    tester = z200 if name == "z200" else start_instances[name]
    X = tester.X
    f = np.zeros(X.n_squares, dtype=np.uint8)
    for g in range(10):
        f[X.canonical_square(0, g, 0)] = 1
    monkeypatch.setattr(tester, "_disputed",
                        lambda lines, edges: np.zeros(0, dtype=np.int64))
    with pytest.raises(AssertionError, match="globally consistent"):
        tester.decode(f)


def test_a_drifting_gain_is_caught_by_the_periodic_recount(start_instances, monkeypatch):
    # every negative gain one too low: the steps are the same, but Delta
    # loses one a step, and the recount at step 64 sees it before the
    # 65th evaluation
    tester = start_instances["p13"]
    rng = np.random.default_rng(0)
    f = tester.code.random_codeword(rng).to_bits() ^ ltc.random_error(rng, tester.n_squares, 268)
    out = tester.decode(f)
    assert out.iterations > 64 and out.delta_trace[64] > 64
    real, calls = tester._evaluate, []

    def drifting(ci, verts, gain, best):
        calls.append(len(verts))
        real(ci, verts, gain, best)
        gain[verts] -= gain[verts] < 0

    monkeypatch.setattr(tester, "_evaluate", drifting)
    with pytest.raises(AssertionError, match="incremental Delta drifted"):
        tester.decode(f)
    assert len(calls) == 64


def test_a_corrupted_last_step_is_caught_by_the_final_recount(start_instances,
                                                              monkeypatch):
    # a flipped view decodes in a few steps; after the last one its vertex
    # takes another candidate, which differs from its neighbours on a line
    tester = start_instances["p13"]
    X = tester.X
    rng = np.random.default_rng(3)
    f = tester.code.random_codeword(rng).to_bits()
    f[np.unique(X.squares_of_vertex(int(rng.integers(X.n_vertices))))] ^= 1
    out = tester.decode(f)
    steps = out.iterations
    assert out.kind == "codeword" and 0 < steps < 64
    real, calls = tester._evaluate, []

    def corrupting(ci, verts, gain, best):
        calls.append(len(verts))
        if len(calls) == steps + 1:       # after the last step, at its vertex
            ci[verts[-1]] ^= 1
        real(ci, verts, gain, best)

    monkeypatch.setattr(tester, "_evaluate", corrupting)
    with pytest.raises(AssertionError, match="incremental Delta drifted"):
        tester.decode(f)
    assert len(calls) == steps + 1
