import math
from functools import partial

import numpy as np
import pytest
from conftest import group_mul

from cayleyltc import codes
from cayleyltc.groups import (
    GeneratorSet,
    Graph,
    cayley_graph,
    cyclic_group,
    lps_generators,
    psl2,
    symmetric_subset,
)
from cayleyltc.spectral import second_eigenvalue


def edge_pairs(graph):
    """Reference: the canonical undirected edge list (u <= v), with
    multiplicity: one pair per u < v arc, whose reversal is its mirror, and
    per loop arc."""
    u, v = graph.arcs[:, 0].tolist(), graph.arcs[:, 1].tolist()
    pairs = sorted((x, y) for x, y in zip(u, v) if x < y)
    assert pairs == sorted((y, x) for x, y in zip(u, v) if x > y), "arcs not mirrored"
    return sorted(pairs + [(x, y) for x, y in zip(u, v) if x == y])


def reference_edge_labelling(graph):
    """Reference: edge i is edge_pairs[i], and each vertex's incident ids
    are filled in one edge at a time, in id order."""
    pairs = edge_pairs(graph)
    if len(set(pairs)) != len(pairs) or any(u == v for u, v in pairs):
        raise ValueError("Tanner codes need a simple graph")
    labelling = np.full((graph.n_vertices, graph.degree), -1, dtype=np.int64)
    fill = np.zeros(graph.n_vertices, dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        for w in (u, v):
            if fill[w] == graph.degree:
                raise ValueError("graph is not regular")
            labelling[w, fill[w]] = i
            fill[w] += 1
    if (labelling < 0).any():
        raise ValueError("graph is not regular")
    return pairs, labelling


def check_axioms(group, samples=64, seed=0):
    """Reference: the identity and inverse laws at every element, and
    associativity on random triples."""
    rng = np.random.default_rng(seed)
    n = group.order
    mul = partial(group_mul, group)
    for i in range(n):
        assert mul(0, i) == i and mul(i, 0) == i
        j = int(group.inverse[i])
        assert mul(i, j) == 0 and mul(j, i) == 0
    for _ in range(samples):
        a, b, c = (int(x) for x in rng.integers(0, n, size=3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_cyclic_basics():
    g = cyclic_group(5)
    assert g.order == 5
    assert g.inverse[2] == 3
    g2 = cyclic_group(2)
    assert list(g2.inverse) == [0, 1]
    with pytest.raises(ValueError):
        cyclic_group(1)


def test_cyclic_axioms():
    check_axioms(cyclic_group(12))


@pytest.mark.parametrize("q,order", [(3, 12), (5, 60), (13, 1092)])
def test_psl2_order(q, order):
    assert psl2(q).order == q * (q * q - 1) // 2 == order


def test_psl2_41_order_formula():
    g = psl2(41)
    assert g.order == 34440 == 41 * 1680 // 2


def test_psl2_rejects_bad_q():
    with pytest.raises(ValueError):
        psl2(9)
    with pytest.raises(ValueError):
        psl2(2)


def test_psl2_identity_and_inverse():
    g = psl2(5)
    assert np.array_equal(g.mats[0], [1, 0, 0, 1])
    check_axioms(g, samples=128)
    i = g.index_of([1, 2, 0, 1])
    j = int(g.inverse[i])
    assert group_mul(g, i, j) == 0


def test_psl2_vectorized_perm_matches_scalar_mul():
    g = psl2(5)
    rng = np.random.default_rng(0)
    s = int(rng.integers(1, g.order))
    lp = g.left_perm(s)
    rp = g.right_perm(s)
    for x in rng.integers(0, g.order, size=20):
        assert lp[x] == group_mul(g, s, int(x))
        assert rp[x] == group_mul(g, int(x), s)


def test_psl2_canonical_sign_well_defined():
    g = psl2(13)
    i = g.index_of([2, 1, 1, 1])
    j = g.index_of([11, 12, 12, 12])   # the negation mod 13
    assert i == j


class SortedKeyPSL2:
    """Reference: PSL2(F_q) as canonical +-M tuples, found by binary search
    among their sorted base-q keys."""

    def __init__(self, q):
        self.q = q
        inv = [0] + [pow(x, q - 2, q) for x in range(1, q)]
        sl2 = [(a, b, c, (1 + b * c) * inv[a] % q)
               for a in range(1, q) for b in range(q) for c in range(q)]
        sl2 += [(0, b, -inv[b] % q, d) for b in range(1, q) for d in range(q)]
        mats = np.unique(self.canonical(np.array(sl2)), axis=0)
        ident = np.flatnonzero((mats == [1, 0, 0, 1]).all(axis=1))[0]
        self.mats = np.vstack([mats[ident], mats[:ident], mats[ident + 1:]])
        self.keys = self.encode(self.mats)
        self.sorter = np.argsort(self.keys)

    def canonical(self, mats):
        """The +-M representative whose first nonzero entry is in 1..(q-1)/2."""
        mats = mats % self.q
        first = np.where(mats[:, 0] != 0, mats[:, 0], mats[:, 1])
        flip = first > (self.q - 1) // 2
        mats[flip] = -mats[flip] % self.q
        return mats

    def encode(self, mats):
        q = self.q
        return ((mats[:, 0] * q + mats[:, 1]) * q + mats[:, 2]) * q + mats[:, 3]

    def indices_of(self, mats):
        keys = self.encode(self.canonical(np.asarray(mats, dtype=np.int64)))
        pos = np.searchsorted(self.keys, keys, sorter=self.sorter)
        assert np.array_equal(self.keys[self.sorter[pos]], keys)
        return self.sorter[pos]

    def perm(self, s, side):
        x, y = (self.mats[s], self.mats) if side == "left" else (self.mats, self.mats[s])
        x, y = x.reshape(-1, 2, 2), y.reshape(-1, 2, 2)
        return self.indices_of((x @ y).reshape(-1, 4))


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_psl2_table_matches_sorted_key_reference(q):
    g, ref = psl2(q), SortedKeyPSL2(q)
    assert np.array_equal(g.mats, ref.mats)
    every = np.arange(g.order)
    for mats in (g.mats, -g.mats % q):
        assert np.array_equal(ref.indices_of(mats), every)
        assert [g.index_of(m) for m in mats] == every.tolist()
    for s in range(g.order):
        for side, perm in (("left", g.left_perm(s)), ("right", g.right_perm(s))):
            assert perm.dtype == np.int64
            assert np.array_equal(perm, ref.perm(s, side))


def test_psl2_lps_perms_match_sorted_key_reference(lps41):
    g, ref = lps41.group, SortedKeyPSL2(41)
    assert np.array_equal(g.mats, ref.mats)
    for s in lps41.indices:
        assert np.array_equal(g.left_perm(s), ref.perm(s, "left"))
        assert np.array_equal(g.right_perm(s), ref.perm(s, "right"))


def test_psl2_index_of_refuses_det_not_one_and_reduces_mod_q():
    g = psl2(13)
    with pytest.raises(ValueError, match=r"matrix \[2, 0, 0, 2\] is not in PSL2\(13\)"):
        g.index_of([2, 0, 0, 2])                 # det 4
    with pytest.raises(ValueError, match=r"matrix \[0, 0, 1, 1\] is not in PSL2"):
        g.index_of([0, 0, 1, 1])                 # det 0: an a = b = 0 slot
    assert g.index_of([14, 13, 0, 1]) == 0       # the identity, entries mod 13


def test_generator_set_validation():
    g = cyclic_group(5)
    with pytest.raises(ValueError):
        GeneratorSet(g, (1,))            # not symmetric: -1 = 4 missing
    with pytest.raises(ValueError):
        GeneratorSet(g, (0, 1, 4))       # identity present
    with pytest.raises(ValueError):
        GeneratorSet(g, (1, 1, 4))       # duplicate
    s = GeneratorSet(g, (1, 4))
    assert list(s.inverse_positions) == [1, 0]


def test_lps_generators_5_41():
    s = lps_generators(psl2(41), 5)
    assert len(s) == 6
    inv = {int(s.group.inverse[i]) for i in s.indices}
    assert inv == set(s.indices)


def test_lps_congruence_errors():
    with pytest.raises(ValueError, match=r"Legendre symbol \(p/q\) = -1"):
        lps_generators(psl2(13), 5)     # 5 is no square mod 13
    with pytest.raises(ValueError, match="1 mod 4"):
        lps_generators(psl2(7), 5)      # 7 != 1 mod 4
    with pytest.raises(ValueError):
        lps_generators(psl2(41), 6)     # p not prime
    with pytest.raises(ValueError):
        lps_generators(psl2(41), 3)     # p != 1 mod 4


def generates_group(S):
    """Reference: the left Cayley graph is connected, so the orbit of the
    identity is the group."""
    return cayley_graph(S.group, S).is_connected()


def loop_generates_group(S):
    """Reference: breadth-first orbit of the identity, one generator at a
    time per level."""
    n = S.group.order
    perms = [S.group.left_perm(s) for s in S.indices]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for p in perms:
            imgs = p[frontier]
            fresh = imgs[~seen[imgs]]
            if fresh.size:
                seen[fresh] = True
                nxt.extend(int(x) for x in np.unique(fresh))
        frontier = nxt
    return bool(seen.all())


def test_generates_group_matches_the_orbit_loop(lps41):
    z12 = cyclic_group(12)
    p13 = psl2(13)
    t = p13.index_of([1, 1, 0, 1])
    u = p13.index_of([1, 0, 1, 1])
    cases = [(GeneratorSet(z12, (3, 9)), False), (GeneratorSet(z12, (1, 11)), True),
             (GeneratorSet(z12, (2, 10, 3, 9)), True), (GeneratorSet(z12, (4, 8)), False),
             (GeneratorSet(p13, tuple(sorted({t, int(p13.inverse[t])}))), False),
             (GeneratorSet(p13, tuple(sorted({t, int(p13.inverse[t]), u,
                                              int(p13.inverse[u])}))), True),
             (lps41, True)]
    for S, expected in cases:
        assert generates_group(S) is loop_generates_group(S) is expected


@pytest.mark.parametrize("p, q", [(5, 41), (13, 17), (13, 53), (5, 29), (13, 29)])
def test_every_admitted_full_lps_set_generates_psl2(p, q):
    # lps_generators relies on Lubotzky-Phillips-Sarnak for connectivity
    # and does not search the group itself
    assert generates_group(lps_generators(psl2(q), p))


def test_lps_generators_13_53():
    s = lps_generators(psl2(53), 13)
    assert len(s) == 14


def test_lps_generators_13_17():
    # 17 != 1 mod 52, but 13 is a square mod 17: a full LPS set in PSL2(F_17)
    s = lps_generators(psl2(17), 13)
    assert len(s) == 14
    assert {int(s.group.inverse[i]) for i in s.indices} == set(s.indices)
    lam = second_eigenvalue(cayley_graph(s.group, s, "left"), method="dense").lam
    assert lam <= 2 * math.sqrt(13) / 14


def test_symmetric_subset():
    s = lps_generators(psl2(41), 5)
    full = symmetric_subset(s, 6)
    assert set(full.indices) == set(s.indices)
    sub = symmetric_subset(s, 4)
    assert len(sub) == 4
    assert {int(sub.group.inverse[i]) for i in sub.indices} == set(sub.indices)
    # deterministic
    assert symmetric_subset(s, 4).indices == sub.indices
    # LPS sets have no self-inverse generators, so odd sizes are unreachable
    with pytest.raises(ValueError):
        symmetric_subset(s, 3)


def loop_symmetric_subset(S, r):
    """Reference: the indices of symmetric_subset(S, r) by the scan that
    records its cost, 1 or 2, and its taken set, or None where it raises."""
    chosen, taken = [], set()
    for g in sorted(S.indices):
        if g in taken:
            continue
        ginv = int(S.group.inverse[g])
        cost = 1 if ginv == g else 2
        if len(chosen) + cost <= r:
            taken |= {g, ginv}
            chosen += [g] if ginv == g else [g, ginv]
        if len(chosen) == r:
            break
    return tuple(sorted(chosen)) if len(chosen) == r else None


def test_symmetric_subset_matches_the_cost_scan():
    rng = np.random.default_rng(5)
    sets = [lps_generators(psl2(29), 5), lps_generators(psl2(17), 13)]
    for n in range(3, 30):
        g = cyclic_group(n)
        for _ in range(6):
            xs = rng.integers(1, n, size=int(rng.integers(1, 6)))
            sets.append(GeneratorSet(g, tuple(sorted({y for x in xs.tolist()
                                                      for y in (x, -x % n)}))))
    for S in sets:
        for r in range(1, len(S) + 1):
            want = loop_symmetric_subset(S, r)
            if want is None:
                with pytest.raises(ValueError, match="no inverse-closed subset"):
                    symmetric_subset(S, r)
            else:
                assert symmetric_subset(S, r).indices == want


def test_symmetric_subset_with_involution():
    g = cyclic_group(10)
    s = GeneratorSet(g, (1, 3, 5, 7, 9))
    sub = symmetric_subset(s, 3)
    assert len(sub) == 3
    assert {int(g.inverse[i]) for i in sub.indices} == set(sub.indices)


def test_cayley_graph_cycle():
    g = cyclic_group(5)
    s = GeneratorSet(g, (1, 4))
    graph = cayley_graph(g, s, "left")
    assert graph.n_vertices == 5
    assert len(edge_pairs(graph)) == 5
    assert graph.degree == 2
    assert sorted(edge_pairs(graph)) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_cayley_graph_left_right_abelian_equal():
    g = cyclic_group(12)
    s = GeneratorSet(g, (1, 11))
    left = cayley_graph(g, s, "left")
    right = cayley_graph(g, s, "right")
    assert edge_pairs(left) == edge_pairs(right)


def test_cayley_graph_lps_counts():
    s = lps_generators(psl2(41), 5)
    graph = cayley_graph(s.group, s, "left")
    assert graph.n_vertices == 34440
    assert len(edge_pairs(graph)) == 34440 * 6 // 2 == 103320
    assert graph.degree == 6
    assert np.all(np.bincount(graph.arcs[:, 0], minlength=graph.n_vertices) == 6)


def test_group_manifest():
    assert psl2(5).manifest() == {"kind": "psl2", "parameters": {"q": 5}, "order": 60}
    assert cyclic_group(7).manifest() == {"kind": "cyclic", "parameters": {"n": 7},
                                          "order": 7}


def reference_is_connected(graph):
    """Breadth-first search gathering each frontier vertex's arcs in Python."""
    seen = np.zeros(graph.n_vertices, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    src, dst = graph.arcs[:, 0], graph.arcs[:, 1]
    order_ = np.argsort(src, kind="stable")
    src_sorted, dst_sorted = src[order_], dst[order_]
    starts = np.searchsorted(src_sorted, np.arange(graph.n_vertices))
    ends = np.searchsorted(src_sorted, np.arange(graph.n_vertices) + 1)
    while frontier.size:
        nbrs = np.concatenate([dst_sorted[starts[v]:ends[v]] for v in frontier])
        nbrs = np.unique(nbrs)
        fresh = nbrs[~seen[nbrs]]
        seen[fresh] = True
        frontier = fresh
    return bool(seen.all())


def argsort_is_connected(graph):
    """Reference: the whole-array breadth-first search that sorts the arcs
    by source on every call."""
    n = graph.n_vertices
    dst_sorted = graph.arcs[np.argsort(graph.arcs[:, 0], kind="stable"), 1]
    starts = np.concatenate([[0], np.cumsum(np.bincount(graph.arcs[:, 0], minlength=n))])
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        lo, count = starts[frontier], starts[frontier + 1] - starts[frontier]
        pos = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        reached = np.zeros(n, dtype=bool)
        reached[dst_sorted[pos]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def bincount_matvec(graph, f):
    """Reference: the normalized adjacency operator as one weighted
    bincount over the arcs."""
    out = np.bincount(graph.arcs[:, 0], weights=f[graph.arcs[:, 1]],
                      minlength=graph.n_vertices)
    return out / graph.degree


def _undirected(n, pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return Graph(n, np.concatenate([pairs, pairs[:, ::-1]]))


def _interleaved(n, pairs):
    """Each edge's two arcs side by side, as the acceptance suite builds
    its graphs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return Graph(n, np.stack([pairs, pairs[:, ::-1]], axis=1).reshape(-1, 2))


def _signed_inputs(rng, n):
    """Random vectors with +0.0 and -0.0 entries, and the all -0.0 vector."""
    out = [np.full(n, -0.0)]
    for _ in range(6):
        f = rng.standard_normal(n)
        f[rng.random(n) < 0.2] = 0.0
        f[rng.random(n) < 0.2] = -0.0
        out.append(f)
    return out


def _permutation_multigraph(rng, n):
    """A symmetric regular multigraph with loops: the arcs of one to four
    random permutations and of their inverses, shuffled."""
    perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 5)))]
    arcs = [np.stack([np.arange(n), p], axis=1) for p in perms]
    arcs += [np.stack([p, np.arange(n)], axis=1) for p in perms]
    return Graph(n, rng.permutation(np.concatenate(arcs)))


def test_is_connected_matches_reference():
    z12 = cyclic_group(12)
    cases = [
        _undirected(1, []),
        _undirected(2, []),                                    # two isolated
        _undirected(1, [(0, 0)]),                              # loop only
        _undirected(4, [(0, 1), (2, 3)]),                      # two parts
        cayley_graph(z12, GeneratorSet(z12, (1, 11))),
        cayley_graph(z12, GeneratorSet(z12, (3, 9))),          # <3> has index 3
    ]
    rng = np.random.default_rng(11)
    cases += [_permutation_multigraph(rng, int(rng.integers(1, 30))) for _ in range(200)]
    expected = [reference_is_connected(g) for g in cases]
    assert [g.is_connected() for g in cases] == expected
    assert [argsort_is_connected(g) for g in cases] == expected
    assert [g.is_connected() for g in cases] == expected     # from the cached table
    assert expected[:6] == [True, False, True, False, True, False]
    assert 20 < sum(expected) < 190            # random cases hit both answers


@pytest.mark.parametrize("graph, error", [
    (_undirected(0, []), "graph has no vertices"),
    (_undirected(3, [(0, 1), (1, 2)]), "graph is not regular"),            # 4 arcs
    (_undirected(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), "graph is not regular"),
    (_undirected(3, [(0, 1), (0, 1), (1, 2)]), "graph is not regular"),    # multi-edge
    (_undirected(4, [(0, 1), (2, 3), (2, 2)]), "graph is not regular"),    # loop
    (_undirected(5, [(1, 2), (2, 3), (3, 4)]), "graph is not regular"),    # 0 isolated
], ids=["empty", "fractional-mean", "integer-mean", "multi-edge", "loop", "isolated"])
def test_irregular_and_empty_graphs_are_refused(graph, error):
    for use in (lambda: graph.degree, graph.is_connected,
                lambda: graph.matvec(np.ones(graph.n_vertices))):
        with pytest.raises(ValueError, match=f"^{error}$"):
            use()


def _matvec_cases():
    """Regular graphs: Cayley graphs on both sides at degree 2, 4, 6 and 14,
    interleaved arcs, and multigraphs with parallel arcs and loops."""
    z12, p13, p29 = cyclic_group(12), psl2(13), psl2(29)
    t, u = p13.index_of([1, 1, 0, 1]), p13.index_of([1, 0, 1, 1])
    gen_sets = [GeneratorSet(z12, (1, 11)),
                GeneratorSet(p13, tuple(sorted({t, int(p13.inverse[t]), u,
                                                int(p13.inverse[u])}))),
                lps_generators(p29, 5), lps_generators(p29, 13)]
    cases = [cayley_graph(S.group, S, side) for S in gen_sets for side in ("left", "right")]
    cycle = [(i, (i + 1) % 7) for i in range(7)]
    cases += [
        _interleaved(7, cycle),                                  # degree 2
        _interleaved(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
        _interleaved(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]),  # parallel
        _undirected(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)]),  # loops
        _undirected(2, [(0, 0), (0, 1), (0, 1), (1, 1)]),        # both at once
    ]
    rng = np.random.default_rng(20)
    cases += [_permutation_multigraph(rng, int(rng.integers(2, 40))) for _ in range(20)]
    return cases


def test_matvec_is_bit_identical_to_the_bincount_walk():
    rng = np.random.default_rng(7)
    for graph in _matvec_cases():
        for f in _signed_inputs(rng, graph.n_vertices):
            assert graph.matvec(f).tobytes() == bincount_matvec(graph, f).tobytes()
        assert graph.is_connected() == argsort_is_connected(graph)


def test_neighbour_table_rows_are_each_vertexs_arcs_in_order():
    z12 = cyclic_group(12)
    graph = cayley_graph(z12, GeneratorSet(z12, (1, 5, 7, 11)))
    assert np.array_equal(graph.table, [(np.arange(12) + s) % 12 for s in (1, 5, 7, 11)])
    graph = _interleaved(3, [(0, 1), (1, 2), (2, 0)])
    assert np.array_equal(graph.table, [[1, 0, 1], [2, 2, 0]])


def _random_circulant(rng, n):
    """A simple regular graph: Cay(Z_n, S) for a random inverse-closed S
    without 0, its vertices relabelled by a random permutation."""
    half = rng.permutation(np.arange(1, n // 2 + 1))[: int(rng.integers(1, n // 2 + 1))]
    gens = np.unique(np.concatenate([half, -half]) % n)
    x = np.arange(n)[:, None]
    pairs = np.stack(np.broadcast_arrays(x, (x + gens) % n), axis=-1).reshape(-1, 2)
    return Graph(n, rng.permutation(n)[pairs])


def test_graph_edge_labelling_matches_the_reference():
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] \
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    cases = [_undirected(10, petersen),
             _undirected(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
             _undirected(3, [(0, 1), (1, 2), (0, 2)])]
    rng = np.random.default_rng(5)
    cases += [_random_circulant(rng, int(rng.integers(3, 40))) for _ in range(60)]
    for graph in cases:
        edges, labelling = codes.graph_edge_labelling(graph)
        pairs, ref = reference_edge_labelling(graph)
        assert [tuple(e) for e in edges.tolist()] == pairs
        assert labelling.dtype == np.int64 and np.array_equal(labelling, ref)


@pytest.mark.parametrize("pairs, n, error", [
    ([(0, 1), (0, 2), (0, 3), (1, 2)], 4, "graph is not regular"),   # mean degree 2
    ([(0, 1), (1, 2)], 3, "graph is not regular"),
    ([(0, 1), (0, 1)], 2, "Tanner codes need a simple graph"),
    ([(0, 0), (1, 1)], 2, "Tanner codes need a simple graph"),
])
def test_graph_edge_labelling_refuses_by_reason(pairs, n, error):
    graph = _undirected(n, pairs)
    for labelling in (codes.graph_edge_labelling, reference_edge_labelling):
        with pytest.raises(ValueError, match=f"^{error}$"):
            labelling(graph)
