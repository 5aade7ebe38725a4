import copy
import json
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from cayleyltc import spectral
from cayleyltc.complexes import build_complex
from cayleyltc.groups import (
    PSL2,
    GeneratorSet,
    Graph,
    cayley_graph,
    cyclic_group,
    lps_generators,
    psl2,
)
from cayleyltc.spectral import (
    DENSE_MAX_DIM,
    OperatorCheckError,
    WalkOperator,
    build_M,
    build_Mgamma,
    build_Mpar,
    build_T,
    edge_label_classes,
    parallel_neighbor_table,
    second_eigenvalue,
    verify_expansion_implication,
)


def toy(n, a_gens, b_gens=None):
    g = cyclic_group(n)
    A = GeneratorSet(g, a_gens, side="left")
    B = GeneratorSet(g, b_gens if b_gens is not None else a_gens, side="right")
    return build_complex(g, A, B)


@pytest.fixture(scope="module")
def z5():
    return toy(5, (1, 4))


@pytest.fixture(scope="module")
def z6():
    # contains the self-inverse generator 3, exercising the Schreier block
    return toy(6, (1, 3, 5))


@pytest.fixture(scope="module")
def instances(z5, z6, p13_instance):
    return {"z5": z5, "z6": z6, "z10": toy(10, (1, 3, 5, 7, 9)),
            "z12": toy(12, (1, 11), (5, 7)), "p13": p13_instance[0]}


# ---------------------------------------------------------------------------
# Dense reference builders: the np.add.at constructions that WalkOperator
# replaced, kept as the reference its tables and matvec are compared with.
# ---------------------------------------------------------------------------


def ref_T(X):
    """Tf(g) = (1/2r) sum_l f(g^l)."""
    r, n = X.nA, X.n_vertices
    T = np.zeros((n, n))
    for lbl in range(X.n_labels):
        np.add.at(T, (np.arange(n), X.vert_image[lbl]), 1.0 / (2 * r))
    return T


def ref_D(X):
    """Edge-to-vertex averaging: Df(g) = (1/2r) sum_l f(<g;l>)."""
    r, n, m = X.nA, X.n_vertices, X.n_edges
    D = np.zeros((n, m))
    for lbl in range(X.n_labels):
        np.add.at(D, (np.arange(n), X.edge_at[lbl]), 1.0 / (2 * r))
    return D


def ref_Dt(X):
    """Vertex-to-edge averaging: Dt f(<g;l>) = (f(g) + f(g^l)) / 2."""
    n, m = X.n_vertices, X.n_edges
    Dt = np.zeros((m, n))
    for e, (t, pos, g) in enumerate(X.edge_rep.tolist()):
        far = (X.left_perms if t == 0 else X.right_perms)[pos, g]
        Dt[e, g] += 0.5
        Dt[e, far] += 0.5
    return Dt


def ref_Mpar(X):
    """Mpar f(<g;l>) = (1/r) sum over opposite-type labels, dense."""
    r, m = X.nA, X.n_edges
    M = np.zeros((m, m))
    rows = np.repeat(np.arange(m), r)
    np.add.at(M, (rows, parallel_neighbor_table(X).ravel()), 1.0 / r)
    return M


def ref_Mpar_block(X, lbl):
    """The block M_l_par on E_l, built one root vertex at a time.

    Returns (distinct edge ids of E_l, block indexed by them).
    """
    r = X.nA
    eids = X.edge_at[lbl]
    distinct = np.unique(eids)
    pos = {int(e): k for k, e in enumerate(distinct)}
    nloc = len(distinct)
    M = np.zeros((nloc, nloc))
    opposite = np.nonzero(X.label_type != X.label_type[lbl])[0]
    counted = np.zeros(nloc, dtype=bool)
    for g in range(X.n_vertices):
        src = pos[int(eids[g])]
        if counted[src]:
            continue
        counted[src] = True
        for opp in opposite:
            dst = pos[int(X.edge_at[lbl, X.vert_image[opp, g]])]
            M[src, dst] += 1.0 / r
    return distinct, M


def ref_Mpar_matvec(X, f):
    """Mpar f assembled from the per-label blocks, without an m x m matrix."""
    out = np.zeros(X.n_edges)
    for lbl in range(X.n_labels):
        distinct, block = ref_Mpar_block(X, lbl)
        out[distinct] = block @ f[distinct]
    return out


def normalized_adjacency(graph):
    """Reference: the dense normalized adjacency matrix, one np.add.at over
    the arcs divided by the degree."""
    A = np.zeros((graph.n_vertices, graph.n_vertices))
    np.add.at(A, (graph.arcs[:, 0], graph.arcs[:, 1]), 1.0)
    return A / graph.degree


def complete_graph(n):
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return Graph(n, np.array(arcs, dtype=np.int64))


def test_second_eigenvalue_k4():
    rep = second_eigenvalue(complete_graph(4), method="dense")
    assert abs(rep.lam - (-1 / 3)) < 1e-12
    assert abs(rep.lambda_min - (-1 / 3)) < 1e-12


def test_second_eigenvalue_cycle5():
    g = cyclic_group(5)
    graph = cayley_graph(g, GeneratorSet(g, (1, 4)))
    rep = second_eigenvalue(graph, method="dense")
    assert abs(rep.lam - np.cos(2 * np.pi / 5)) < 1e-12


def test_second_eigenvalue_rejects_disconnected():
    arcs = np.array([(0, 1), (1, 0), (2, 3), (3, 2)], dtype=np.int64)
    with pytest.raises(ValueError, match="disconnected"):
        second_eigenvalue(Graph(4, arcs))


def test_dense_vs_iterative_agree():
    g = cyclic_group(101)
    graph = cayley_graph(g, GeneratorSet(g, (1, 100, 10, 91)))
    dense = second_eigenvalue(graph, method="dense")
    it = second_eigenvalue(graph, method="iterative", tol=1e-12)
    assert abs(dense.lam - it.lam) < 1e-6
    assert it.residual < 1e-6
    assert it.iterations > 0


def block_spectrum(blocks, c):
    """The multiset that character blocks j = 0..c//2 stand for: M_0 and,
    for even c, M_(c/2) once; every other M_j twice, the second time for
    its conjugate M_(c-j)."""
    vals = np.linalg.eigvalsh(blocks)
    j = np.arange(len(vals))
    return np.repeat(vals, np.where((j == 0) | (2 * j == c), 1, 2), axis=0).ravel()


def same_multiset(a, b):
    return len(a) == len(b) and np.abs(np.sort(a) - np.sort(b)).max() <= 1e-12


def random_symmetric_set(group, seed):
    """Three random elements and their inverses."""
    picks = np.random.default_rng(seed).choice(np.arange(1, group.order), 3, replace=False)
    return GeneratorSet(group, tuple(sorted({*picks.tolist(), *group.inverse[picks].tolist()})))


BLOCK_CASES = ["z5", "z10", "z12", "p13", "p13_tnc", "p13_tnc6", "psl2_17", "psl2_19"]


@pytest.fixture(scope="module")
def block_complexes(instances):
    """name -> complex, for the differential test of the character blocks."""
    g = instances["p13"].group
    out = {name: instances[name] for name in ("z5", "z10", "z12", "p13")}
    out["p13_tnc"] = build_complex(g, GeneratorSet(g, (79, 90, 91, 234)),
                                   GeneratorSet(g, (517, 328, 559, 728)))
    out["p13_tnc6"] = build_complex(g, GeneratorSet(g, (562, 1069, 1059, 890, 509, 843)),
                                    GeneratorSet(g, (883, 131, 1001, 325, 899, 284)))
    for q in (17, 19):
        G = psl2(q)
        out[f"psl2_{q}"] = build_complex(G, random_symmetric_set(G, q),
                                         random_symmetric_set(G, q + 100))
    return out


def build_graphs(X):
    """Both Cayley graphs as complex_spectrum hands them to the dense solver."""
    return [Graph.from_permutations(X.left_perms, X.group.block_perm("left")),
            Graph.from_permutations(X.right_perms, X.group.block_perm("right"))]


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_character_blocks_hold_the_whole_dense_spectrum(block_complexes, name):
    # |<u>| = q for PSL2(F_q) and n for Z_n; the blocks hold n / c rows each
    X = block_complexes[name]
    c = X.group.q if X.group.kind == "psl2" else X.n_vertices
    for graph in build_graphs(X):
        assert graph.is_connected()
        blocks = spectral.character_blocks(graph)
        assert blocks.shape == (c // 2 + 1, X.n_vertices // c, X.n_vertices // c)
        dense = np.linalg.eigvalsh(normalized_adjacency(graph))
        assert same_multiset(block_spectrum(blocks, c), dense)
        rep = second_eigenvalue(graph, method="dense")
        assert abs(rep.lam - dense[-2]) <= 1e-12 and abs(rep.lambda_min - dense[0]) <= 1e-12


def test_a_dropped_block_fails_the_comparison(block_complexes):
    # dropped outright, or overwritten by M_0 so that the count still fits.
    # Any two blocks j and j t^2 have one spectrum, since conjugation by
    # diag(t, 1/t) maps one character onto the other, so a block copied
    # from another j can pass
    graph = build_graphs(block_complexes["p13"])[0]
    blocks = spectral.character_blocks(graph)
    dense = np.linalg.eigvalsh(normalized_adjacency(graph))
    assert same_multiset(block_spectrum(blocks, 13), dense)
    for j in range(len(blocks)):
        assert not same_multiset(block_spectrum(np.delete(blocks, j, axis=0), 13), dense), j
        if j:
            overwritten = blocks.copy()
            overwritten[j] = blocks[0]
            assert not same_multiset(block_spectrum(overwritten, 13), dense), j


def test_a_plain_graph_is_one_block():
    # no commuting permutation: the identity, m = n and one real block
    graph = complete_graph(4)
    blocks = spectral.character_blocks(graph)
    assert blocks.shape == (1, 4, 4)
    assert np.array_equal(blocks[0], normalized_adjacency(graph))


def test_a_commuting_permutation_with_unequal_cycles_is_refused():
    # a loop at each of 3 vertices commutes with every map; (0 1) has
    # cycles of length 2 and 1, and a constant map is no permutation
    loops = np.arange(3)[None, :]
    for P in ([1, 0, 2], [0, 0, 0]):
        graph = Graph.from_permutations(loops, np.array(P))
        with pytest.raises(AssertionError, match="no free commuting permutation"):
            spectral.character_blocks(graph)


def list_lanczos(graph, tol, budget, seed=0xC0DE):
    """Reference: the Lanczos loop that keeps its Krylov basis as a list
    and copies it into an array before every re-orthogonalisation.
    Returns (lambda, residual, iterations)."""
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    ones = np.ones(n) / np.sqrt(n)

    def deflate(w):
        return w - (ones @ w) * ones

    v = deflate(rng.standard_normal(n))
    v /= np.linalg.norm(v)
    basis, alphas, betas = [v], [], []
    theta_prev, stable, iterations = None, 0, 0
    for k in range(min(budget, n - 1)):
        iterations = k + 1
        w = deflate(graph.matvec(basis[-1]))
        alpha = float(basis[-1] @ w)
        alphas.append(alpha)
        w = w - alpha * basis[-1]
        if k > 0:
            w = w - betas[-1] * basis[-2]
        Q = np.asarray(basis)
        w = w - Q.T @ (Q @ w)
        tri = np.diag(alphas)
        if betas:
            off = np.array(betas)
            tri += np.diag(off, 1) + np.diag(off, -1)
        theta = float(np.linalg.eigvalsh(tri)[-1])
        if theta_prev is not None and abs(theta - theta_prev) < tol:
            stable += 1
            if stable >= 3:
                break
        else:
            stable = 0
        theta_prev = theta
        beta = float(np.linalg.norm(w))
        if beta < 1e-14:
            break
        betas.append(beta)
        basis.append(w / beta)
    tri = np.diag(alphas)
    if betas[: len(alphas) - 1]:
        off = np.array(betas[: len(alphas) - 1])
        tri += np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(tri)
    theta = float(evals[-1])
    y = np.asarray(basis[: len(alphas)]).T @ evecs[:, -1]
    y /= np.linalg.norm(y)
    return theta, float(np.linalg.norm(deflate(graph.matvec(y)) - theta * y)), iterations


@pytest.mark.parametrize("first_rows", [spectral.LANCZOS_FIRST_ROWS, 2])
def test_lanczos_buffer_matches_list_basis(instances, p13_instance, lps41,
                                           monkeypatch, first_rows):
    # bit-identical lambda, residual and iteration count; two first rows
    # make the buffer double several times
    monkeypatch.setattr(spectral, "LANCZOS_FIRST_ROWS", first_rows)
    graphs = [cayley_graph(instances["z10"].group, instances["z10"].A, "left"),
              cayley_graph(p13_instance[0].group, p13_instance[0].A, "left"),
              cayley_graph(lps41.group, lps41, "left")]
    for graph in graphs:
        rep = spectral._lanczos_second(graph, 1e-10)
        assert (rep.lam, rep.residual, rep.iterations) == list_lanczos(graph, 1e-10, 100000)


def test_spectral_report_json():
    # each side's record holds its SpectralReport's fields as plain JSON
    # values, lam and n_vertices named lambda and nvertices
    x = toy(12, (1, 11), (5, 7))
    for method in ("dense", "iterative"):
        rec = spectral.complex_spectrum(x, method=method)
        assert json.loads(json.dumps(rec)) == rec
        for side, S in (("left", x.A), ("right", x.B)):
            rep = second_eigenvalue(cayley_graph(x.group, S, side), method=method)
            assert rec["cayley"][side] == {
                "lambda": rep.lam, "method": rep.method, "residual": rep.residual,
                "iterations": rep.iterations, "degree": rep.degree,
                "nvertices": rep.n_vertices, "lambda_min": rep.lambda_min}
            assert {type(v) for v in rec["cayley"][side].values()} <= {int, float, str}


def test_operator_markov_and_symmetric(z5, z6):
    for x in (z5, z6):
        for op in (build_T(x), build_M(x), build_Mpar(x), build_Mgamma(x, 0.4)):
            assert isinstance(op, WalkOperator)
            op.check(tol=1e-12)


def test_D_Dt_row_stochastic(z5):
    D = ref_D(z5)
    Dt = ref_Dt(z5)
    assert np.abs(D.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(Dt.sum(axis=1) - 1).max() < 1e-12
    M = build_M(z5).matrix
    assert np.abs(M - Dt @ build_T(z5).matrix @ D).max() < 1e-15


def test_M_expansion_bound(z5, z6):
    # Rayleigh quotient of M over the complement of constants is at most
    # the worse of the two Cayley graph eigenvalues
    for x in (z5, z6, toy(12, (1, 11), (5, 7))):
        lam = spectral.complex_lambda(x, method="dense")
        M = build_M(x).matrix
        m = M.shape[0]
        vals, vecs = np.linalg.eigh(M)
        ones = np.ones(m) / np.sqrt(m)
        # largest eigenvalue with eigenvector orthogonal to constants
        mask = np.abs(vecs.T @ ones) < 1e-8
        top = vals[mask].max()
        assert top <= lam + 1e-9


def test_matfree_matches_dense(z6):
    # the table matvec agrees with its own dense matrix
    for op in (build_T(z6), build_M(z6), build_Mpar(z6), build_Mgamma(z6, 0.4)):
        dense = op.matrix
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.standard_normal(op.dim)
            assert np.abs(dense @ f - op.matvec(f)).max() < 1e-12
        op.check()


@pytest.mark.parametrize("name", ["z5", "z6", "z10", "z12", "p13"])
def test_operators_match_dense_reference(instances, name):
    X = instances[name]
    T, D, Dt = ref_T(X), ref_D(X), ref_Dt(X)
    gamma = 0.375
    rng = np.random.default_rng(7)
    f_v = rng.standard_normal(X.n_vertices)
    f_e = rng.standard_normal(X.n_edges)
    mpar_f = ref_Mpar_matvec(X, f_e)
    m_f = Dt @ (T @ (D @ f_e))
    cases = [(build_T(X), T @ f_v, f_v), (build_M(X), m_f, f_e),
             (build_Mpar(X), mpar_f, f_e),
             (build_Mgamma(X, gamma), gamma * m_f + (1 - gamma) * mpar_f, f_e)]
    for op, ref_f, f in cases:
        assert np.abs(op.matvec(f) - ref_f).max() < 1e-13
    if X.n_edges > DENSE_MAX_DIM:                 # p13: edge operators stay sparse
        assert X.n_vertices <= DENSE_MAX_DIM
        for op, _, _ in cases[1:]:
            with pytest.raises(ValueError, match="capped"):
                op.matrix
        assert np.abs(cases[0][0].matrix - T).max() <= 1e-15
        return
    M, P = Dt @ T @ D, ref_Mpar(X)
    for (op, _, _), ref in zip(cases, (T, M, P, gamma * M + (1 - gamma) * P)):
        assert np.abs(op.matrix - ref).max() <= 1e-15


def test_check_rejects_redirected_entry(z6):
    for op in (build_T(z6), build_M(z6), build_Mpar(z6)):
        table = op.terms[0][1].copy()
        table[0, 0] = (table[0, 0] + 1) % op.dim
        with pytest.raises(OperatorCheckError, match="transpose"):
            WalkOperator([(1, table)]).check()


def test_check_rejects_index_out_of_range(z6):
    table = build_Mpar(z6).terms[0][1].copy()
    for bad in (-1, z6.n_edges):
        table[3, 1] = bad
        with pytest.raises(OperatorCheckError, match="outside"):
            WalkOperator([(1, table)]).check()


def test_check_rejects_bad_weights(z6):
    m_table = build_M(z6).terms[0][1]
    p_table = build_Mpar(z6).terms[0][1]
    for weights, match in (((Fraction(3, 8), Fraction(1, 2)), "sum"),
                           ((Fraction(3, 2), Fraction(-1, 2)), "negative")):
        op = WalkOperator(list(zip(weights, (m_table, p_table))))
        with pytest.raises(OperatorCheckError, match=match):
            op.check()
    build_Mgamma(z6, 0.375).check()



def test_mpar_block_structure(z6):
    Mp = build_Mpar(z6).matrix
    classes = edge_label_classes(z6)
    owner = np.full(z6.n_edges, -1)
    for ci, cls in enumerate(classes):
        owner[cls["edge_ids"]] = ci
    assert (owner >= 0).all()
    for e in range(z6.n_edges):
        for f in range(z6.n_edges):
            if owner[e] != owner[f]:
                assert Mp[e, f] == 0.0


def test_mpar_block_is_cayley_graph(z5):
    # non-self-inverse left label: block is the right Cayley graph Cay(G;B)
    # under the bijection <g;l> <-> g
    lbl = 0
    assert z5.label_inv[lbl] != lbl
    eids = z5.edge_at[lbl]                      # root g -> edge id
    Mp = build_Mpar(z5).matrix
    block = Mp[np.ix_(eids, eids)]
    right = cayley_graph(z5.group, z5.B, "right")
    assert np.abs(block - normalized_adjacency(right)).max() < 1e-12


def test_mpar_block_right_label_is_left_cayley(z5):
    lbl = z5.nA                                  # first right label
    eids = z5.edge_at[lbl]
    Mp = build_Mpar(z5).matrix
    block = Mp[np.ix_(eids, eids)]
    left = cayley_graph(z5.group, z5.A, "left")
    assert np.abs(block - normalized_adjacency(left)).max() < 1e-12


def schreier_graph(G, S, subgroup_generator, side="right"):
    """Reference: the Schreier graph of S acting on the cosets of
    <subgroup_generator>.

    For the 'right' side the vertices are left cosets Hg with arcs
    Hg -> Hgs; for 'left' they are right cosets gH with arcs gH -> sgH.
    """
    n = G.order
    # orbit partition of G under the subgroup acting on the opposite side
    h_perm = (G.left_perm(subgroup_generator) if side == "right"
              else G.right_perm(subgroup_generator))
    coset_id = np.full(n, -1, dtype=np.int64)
    n_cosets = 0
    for g in range(n):
        if coset_id[g] >= 0:
            continue
        x = g
        while coset_id[x] < 0:
            coset_id[x] = n_cosets
            x = int(h_perm[x])
        n_cosets += 1
    reps = np.zeros(n_cosets, dtype=np.int64)
    seen = np.zeros(n_cosets, dtype=bool)
    for g in range(n):
        c = coset_id[g]
        if not seen[c]:
            reps[c] = g
            seen[c] = True
    blocks = []
    cosets = np.arange(n_cosets, dtype=np.int64)
    for s in S.indices:
        perm = G.right_perm(s) if side == "right" else G.left_perm(s)
        blocks.append(np.stack([cosets, coset_id[perm[reps]]], axis=1))
    arcs = np.concatenate(blocks)
    return Graph(n_cosets, arcs, name=f"schreier-{side}")


def test_schreier_graph_cosets():
    # Z_6 cosets of <3> under the action of {1,5}: a triangle-like quotient
    g = cyclic_group(6)
    s = GeneratorSet(g, (1, 5))
    sch = schreier_graph(g, s, subgroup_generator=3, side="right")
    assert sch.n_vertices == 3
    assert len(sch.arcs) == 6
    assert sch.is_connected()


def test_mpar_block_self_inverse_is_schreier(z6):
    # the label of generator 3 in Z6 is self-inverse; its block is the
    # Schreier graph of B acting on cosets of <3>
    lbl = list(z6.A.indices).index(3)
    assert z6.label_inv[lbl] == lbl
    distinct = np.unique(z6.edge_at[lbl])
    block = build_Mpar(z6).matrix[np.ix_(distinct, distinct)]
    assert len(distinct) == z6.n_vertices // 2
    sch = schreier_graph(z6.group, z6.B, subgroup_generator=3, side="right")
    # match vertices: coset of g = {g, g+3}; schreier ids follow first-seen
    # order over g = 0,1,2..., same as np.unique on edge ids when edge ids
    # are assigned in root order -- compare spectra and row sums instead of
    # chasing the bijection
    a = np.linalg.eigvalsh(block)
    b = np.linalg.eigvalsh(normalized_adjacency(sch))
    assert np.abs(a - b).max() < 1e-12
    # and verify entrywise under the explicit map <g;l> <-> {g, g+3}
    coset_of = {}
    for s, e in enumerate(distinct):
        t, pos, g = z6.edge_rep[e]
        coset_of[s] = frozenset({int(g), int((g + 3) % 6)})
    for s1 in range(len(distinct)):
        for s2 in range(len(distinct)):
            g1 = min(coset_of[s1])
            expected = sum(
                1.0 for b_el in z6.B.indices
                if frozenset({(g1 + b_el) % 6, (g1 + 3 + b_el) % 6}) == coset_of[s2])
            assert abs(block[s1, s2] - expected / z6.nA) < 1e-12


def test_mpar_consistent_with_block_builder(z6):
    Mp = build_Mpar(z6).matrix
    for lbl in range(z6.n_labels):
        distinct, block = ref_Mpar_block(z6, lbl)
        sub = Mp[np.ix_(distinct, distinct)]
        assert np.abs(sub - block).max() < 1e-12


def test_underlying_graph_regularity(z6):
    # T's table read as the (|A|+|B|)-regular graph on V with both edge types
    T = build_T(z6)
    table = T.terms[0][1]
    arcs = np.stack([np.repeat(np.arange(T.dim), table.shape[1]), table.ravel()], axis=1)
    g = Graph(T.dim, arcs)
    assert g.degree == z6.nA + z6.nB
    assert np.abs(normalized_adjacency(g) - T.matrix).max() == 0.0
    rep = second_eigenvalue(g, method="dense")
    assert rep.lam <= 1.0


def test_mgamma_requires_open_interval(z5):
    with pytest.raises(ValueError):
        build_Mgamma(z5, 0.0)
    with pytest.raises(ValueError):
        build_Mgamma(z5, 1.0)


def test_expansion_implication_all_edges(z5):
    op = build_Mgamma(z5, 0.5)
    rec = verify_expansion_implication(op, np.arange(op.dim), delta=1.0, lam=0.5,
                                       conclusion_scale=2 * z5.nA)
    assert rec["delta_R"] == pytest.approx(1.0)
    assert rec["hypothesis_holds"] and rec["conclusion_holds"]


def test_complex_spectrum_reports_both_sides():
    x = toy(12, (1, 11), (5, 7))
    rec = spectral.complex_spectrum(x, method="dense")
    sides = rec["cayley"]
    for side, S in (("left", x.A), ("right", x.B)):
        ref = second_eigenvalue(cayley_graph(x.group, S, side), method="dense")
        assert sides[side]["lambda"] == ref.lam
        assert sides[side]["method"] == "dense"
    assert rec["lambda"] == max(sides["left"]["lambda"], sides["right"]["lambda"])
    assert spectral.complex_lambda(x, method="dense") == rec["lambda"]


def cayley_graph_spectrum(X):
    """Reference: complex_spectrum with each side's graph recomputed from
    the group by cayley_graph."""
    reports = {}
    for side, S in (("left", X.A), ("right", X.B)):
        rep = asdict(second_eigenvalue(cayley_graph(X.group, S, side)))
        rep["lambda"], rep["nvertices"] = rep.pop("lam"), rep.pop("n_vertices")
        reports[side] = rep
    return {"lambda": max(reports["left"]["lambda"], reports["right"]["lambda"]),
            "cayley": reports}


@pytest.fixture(scope="module")
def spectrum_cases(z5, p13_instance):
    """name -> (complex, its cayley_graph_spectrum): two A != B complexes,
    z12 and the TNC-true PSL2(F_13) instance, then three with B = A, solved
    dense (z5, p13) and by Lanczos (LPS(5,29))."""
    p13 = p13_instance[0]
    g, p29 = p13.group, psl2(29)
    S = lps_generators(p29, 5)
    cases = {"z12": toy(12, (1, 11), (5, 7)),
             "p13_tnc": build_complex(g, GeneratorSet(g, (79, 90, 91, 234)),
                                      GeneratorSet(g, (517, 328, 559, 728))),
             "z5": z5, "p13": p13, "lps29": build_complex(p29, S, S)}
    return {name: (X, cayley_graph_spectrum(X)) for name, X in cases.items()}


def one_solve_reference(X, ref):
    """What complex_spectrum records: the reference when A != B, and the
    reference's left record on both sides when B = A."""
    if X.A.indices != X.B.indices:
        return ref
    left = ref["cayley"]["left"]
    return {"lambda": left["lambda"], "cayley": {"left": left, "right": dict(left)}}


def count_solves(monkeypatch):
    """A list that grows by one entry at each second_eigenvalue call."""
    calls = []
    solve = spectral.second_eigenvalue

    def counted(graph, **kwargs):
        calls.append(graph.n_vertices)
        return solve(graph, **kwargs)

    monkeypatch.setattr(spectral, "second_eigenvalue", counted)
    return calls


def test_complex_spectrum_equals_the_cayley_graph_path(spectrum_cases):
    # A != B: both records byte-identical to the reference.  B = A: the left
    # record byte-identical to the reference's left, the right a copy of it
    for name, (X, ref) in spectrum_cases.items():
        rec = spectral.complex_spectrum(X)
        assert json.dumps(rec, sort_keys=True) == json.dumps(
            one_solve_reference(X, ref), sort_keys=True), name
    assert rec["cayley"]["left"]["method"] == "iterative"     # p29 runs Lanczos


def test_the_independent_right_solve_agrees_with_the_left(spectrum_cases):
    # the copy stands for a solve whose lambda agrees within 1e-12 when dense,
    # and within the two residuals when Lanczos
    for name in ("z5", "p13", "lps29"):
        left, right = spectrum_cases[name][1]["cayley"].values()
        slack = 1e-12 if left["method"] == "dense" else left["residual"] + right["residual"]
        assert abs(left["lambda"] - right["lambda"]) <= slack, name
    assert spectrum_cases["lps29"][1]["cayley"]["left"]["method"] == "iterative"


def test_b_equal_to_a_solves_one_side(spectrum_cases, monkeypatch):
    calls = count_solves(monkeypatch)
    for name, solves in (("p13", 1), ("lps29", 1), ("p13_tnc", 2), ("z12", 2)):
        X = spectrum_cases[name][0]
        del calls[:]
        spectral.complex_spectrum(X)
        assert len(calls) == solves, name


def swapped_right_table(X):
    """X with two entries of one right_perms row swapped: still a
    permutation, but neither the image of the left table under g -> g^-1
    nor a table that left translation by the block generator commutes with."""
    X = copy.copy(X)
    X.right_perms = X.right_perms.copy()
    X.right_perms[1, [5, 9]] = X.right_perms[1, [9, 5]]
    assert np.array_equal(np.sort(X.right_perms[1]), np.arange(X.n_vertices))
    return X


def test_a_right_table_off_the_inverse_map_gets_two_solves(spectrum_cases, monkeypatch):
    # the map check fails, so the right side is solved too, and its dense
    # solve refuses the table before it assembles a block
    X = swapped_right_table(spectrum_cases["p13"][0])
    calls = count_solves(monkeypatch)
    with pytest.raises(AssertionError, match="no free commuting permutation"):
        spectral.complex_spectrum(X)
    assert calls == [X.n_vertices, X.n_vertices]


def test_a_table_the_block_generator_does_not_commute_with_exits_3(tmp_path, capsys,
                                                                     monkeypatch):
    # a program fault, not a refusal: build exits 3 and writes nothing
    from cayleyltc import cli

    build = cli.build_complex
    monkeypatch.setattr(cli, "build_complex",
                        lambda *args: swapped_right_table(build(*args)))
    assert cli.main(["build", "--group", "psl2:13", "--gens", "79,90,91,234",
                     "--base", "parity:4", "--out", str(tmp_path / "p13")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "AssertionError" and "no free commuting permutation" in err["error"]
    assert not (tmp_path / "p13").exists()


def test_a_map_that_is_no_permutation_gets_two_solves(monkeypatch):
    # on z12 with A = {1, 11} and B = {10, 2}, g -> 2g meets iota(a g) =
    # iota(g) b for each paired a and b, but it is no permutation: the left
    # graph is connected and the right one is not, so the right side is
    # solved, and refused
    X = toy(12, (1, 11), (10, 2))
    doubling = 2 * np.arange(12) % 12
    assert np.array_equal(doubling[X.left_perms], X.right_perms[X.a_inv_pos][:, doubling])
    monkeypatch.setattr(X.group, "inverse", doubling)
    calls = count_solves(monkeypatch)
    with pytest.raises(ValueError, match="disconnected"):
        spectral.complex_spectrum(X)
    assert len(calls) == 2


def test_complex_spectrum_recomputes_no_permutation(spectrum_cases, monkeypatch):
    # the complex holds every generator's permutation; only translation by
    # the block generator u is computed, once per side solved
    calls = []
    for name in ("left_perm", "right_perm"):
        perm = getattr(PSL2, name)

        def only_u(self, s, name=name, perm=perm):
            if s != self.block_generator:
                raise AssertionError("the complex already holds this permutation")
            calls.append(name)
            return perm(self, s)

        monkeypatch.setattr(PSL2, name, only_u)
    for name, sides in (("p13", ["right_perm"]), ("p13_tnc", ["right_perm", "left_perm"])):
        X, ref = spectrum_cases[name]
        del calls[:]
        assert spectral.complex_spectrum(X) == one_solve_reference(X, ref), name
        assert calls == sides, name


def old_expansion_decisions(op, R, delta, lam, conclusion_scale):
    """Reference: the float decisions with a 1e-12 slack."""
    ind = np.zeros(op.dim)
    ind[R] = 1.0
    quad = float(ind @ op.matvec(ind))
    hypothesis = quad >= delta * len(R) - 1e-12
    conclusion = len(R) >= (delta - lam) * op.dim / conclusion_scale - 1e-12
    return hypothesis, conclusion


def test_expansion_implication_decisions_equal_the_float_decisions():
    # the subsets and deltas of acceptance criterion 10
    fixtures = [toy(5, (1, 4)), toy(6, (1, 3, 5)), toy(12, (1, 11), (5, 7)),
                toy(10, (1, 3, 5, 7, 9))]
    seen = set()
    for X in fixtures:
        r = X.nA
        op = build_Mgamma(X, 0.375)
        lam = spectral.complex_lambda(X, method="dense")
        rng = np.random.default_rng(1000 + X.n_vertices)
        for _ in range(100):
            size = int(rng.integers(1, X.n_edges + 1))
            R = rng.choice(X.n_edges, size=size, replace=False)
            delta = float(rng.uniform(0, 1))
            rec = verify_expansion_implication(op, R, delta=delta, lam=lam,
                                               conclusion_scale=2 * r, check_op=False)
            decisions = (rec["hypothesis_holds"], rec["conclusion_holds"])
            assert decisions == old_expansion_decisions(op, R, delta, lam, 2 * r)
            assert rec["implication_holds"]
            seen.add(decisions)
    assert {(True, True), (False, True)} <= seen


def test_expansion_implication_holds_with_equality():
    # every vertex of Z_8: <T 1_V, 1_V> = 8 = 1 * |V|, and with lam = 0 the
    # bound (1 - 0) * 8 is |V| itself
    X = toy(8, (1, 7), (3, 5))
    op = build_T(X)
    rec = verify_expansion_implication(op, np.arange(8), delta=1.0, lam=0.0)
    assert rec["quad_form"] == 8.0 and rec["conclusion_bound"] == 8.0
    assert rec["hypothesis_holds"] and rec["conclusion_holds"]
    # just past equality in both inequalities; the old 1e-12 slack accepted both
    above = 1.0 + 2.0 ** -44
    rec = verify_expansion_implication(op, np.arange(8), delta=above, lam=0.0)
    assert not rec["hypothesis_holds"] and not rec["conclusion_holds"]
    assert rec["implication_holds"]
    assert old_expansion_decisions(op, np.arange(8), above, 0.0, 1) == (True, True)
    # half the vertices of Z_8 at lam = 1/2: the bound (1 - 1/2) * 8 is 4
    rec = verify_expansion_implication(op, np.arange(4), delta=1.0, lam=0.5)
    assert rec["conclusion_bound"] == 4.0 and rec["conclusion_holds"]


def test_expansion_implication_counts_the_quadratic_form_exactly():
    # with a weight of 1/3, delta_R = <op 1_R, 1_R> / |R| is no float; the
    # floats just below and just above it decide the hypothesis each way,
    # where the old 1e-12 slack accepted both
    X = toy(5, (1, 4))
    table = build_T(X).terms[0][1]
    third = Fraction(1, 3)
    op = WalkOperator([(third, table), (1 - third, np.arange(5)[:, None])])
    R = np.array([0, 1])
    quad = third * Fraction(int(np.isin(table[R], R).sum()), 4) + (1 - third) * len(R)
    delta_R = quad / len(R)
    nearest = float(delta_R)
    below = nearest if Fraction(nearest) < delta_R else float(np.nextafter(nearest, 0.0))
    above = float(np.nextafter(below, 2.0))
    assert Fraction(below) < delta_R < Fraction(above)
    assert verify_expansion_implication(op, R, delta=below, lam=0.0)["hypothesis_holds"]
    assert not verify_expansion_implication(op, R, delta=above, lam=0.0)["hypothesis_holds"]
    assert old_expansion_decisions(op, R, above, 0.0, 1)[0]


def test_expansion_implication_random_subsets(z5):
    lam = spectral.complex_lambda(z5, method="dense")
    op = build_Mgamma(z5, 0.3)
    rng = np.random.default_rng(5)
    for _ in range(100):
        size = int(rng.integers(1, op.dim + 1))
        R = rng.choice(op.dim, size=size, replace=False)
        rec = verify_expansion_implication(
            op, R, delta=float(rng.uniform(0, 1)), lam=lam,
            conclusion_scale=2 * z5.nA, check_op=False)
        assert rec["implication_holds"]
        # with delta = delta_R the hypothesis is tight and the conclusion
        # must hold unconditionally
        rec2 = verify_expansion_implication(
            op, R, delta=rec["delta_R"], lam=lam,
            conclusion_scale=2 * z5.nA, check_op=False)
        assert rec2["conclusion_holds"]


def test_expansion_implication_single_edge(z5):
    op = build_Mgamma(z5, 0.5)
    rec = verify_expansion_implication(op, [0], delta=0.9, lam=0.5,
                                       conclusion_scale=2 * z5.nA)
    assert rec["size_R"] == 1
    assert "delta_R" in rec and "implication_holds" in rec


def test_expansion_implication_rejects_bad_operator():
    # rows 0 -> 1 and 1 -> 1: Markov, but the table is not its own transpose
    bad = WalkOperator([(1, np.array([[1], [1]]))])
    with pytest.raises(spectral.OperatorCheckError):
        verify_expansion_implication(bad, [0], delta=0.5, lam=0.1)


def test_operators_require_equal_degrees():
    x = toy(6, (1, 5), (1, 5, 3))
    with pytest.raises(ValueError, match=r"\|A\| = \|B\|"):
        build_T(x)
