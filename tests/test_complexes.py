import numpy as np
import pytest

from cayleyltc.complexes import (
    LEFT,
    RIGHT,
    build_complex,
    complex_content_hash,
    deserialize_complex,
    serialize_complex,
)
from cayleyltc.groups import GeneratorSet, cyclic_group, psl2


def toy(n, a_gens, b_gens=None):
    g = cyclic_group(n)
    A = GeneratorSet(g, a_gens, side="left")
    B = GeneratorSet(g, b_gens if b_gens is not None else a_gens, side="right")
    return build_complex(g, A, B)


@pytest.fixture(scope="module")
def z3():
    return toy(3, (1, 2))


@pytest.fixture(scope="module")
def z5():
    return toy(5, (1, 4))


@pytest.fixture(scope="module")
def z12():
    return toy(12, (1, 11), (5, 7))


@pytest.fixture(scope="module")
def p13():
    g = psl2(13)
    t = g.index_of([1, 1, 0, 1])
    u = g.index_of([1, 0, 1, 1])
    gens = tuple(sorted({t, g.inv(t), u, g.inv(u)}))
    A = GeneratorSet(g, gens, side="left")
    B = GeneratorSet(g, gens, side="right")
    return build_complex(g, A, B)


def test_z3_counts_hand_enumeration(z3):
    # hand enumeration of the 12 triples groups them into 3 classes of 4
    assert z3.n_vertices == 3
    assert z3.n_edges == 6
    assert z3.n_squares == 3
    s0 = z3.squares_of_vertex(0)
    # four label pairs map onto three distinct squares: iota_0 not injective
    assert s0.shape == (2, 2)
    assert len(np.unique(s0)) == 3
    assert z3.canonical_square(0, 0, 0) != z3.canonical_square(1, 0, 1)
    # [1,0,2] = [2,0,1] (slots (a,b)=(1,2) and (2,1) are the same square)
    assert z3.canonical_square(0, 0, 1) == z3.canonical_square(1, 0, 0)


def test_z5_counts(z5):
    assert (z5.n_vertices, z5.n_edges, z5.n_squares) == (5, 10, 5)
    cond = z5.check_conditions()
    assert not cond.tnc
    assert cond.n2c
    g, a, b = cond.tnc_witness
    grp = z5.group
    assert grp.mul(g, a) == grp.mul(b, g)


def test_z4_degenerate_square():
    x = toy(4, (2,))
    cond = x.check_conditions()
    assert not cond.n2c
    g, a, b = cond.n2c_witness
    grp = x.group
    assert grp.mul(a, a) == 0
    assert grp.mul(grp.mul(grp.inv(g), a), g) == b
    # the degenerate classes have two triples and two distinct edges
    assert set(x.square_class_size.tolist()) == {2}
    assert x.n_squares == 4 * 1 * 1 // 2
    for s in range(x.n_squares):
        assert len(x.square_edges(s)) == 2
        assert len(x.square_vertices(s)) == 2


def test_tnc_implies_n2c(z12):
    cond = z12.check_conditions()
    assert cond.tnc     # abelian with A disjoint from B
    assert cond.n2c
    # under TNC every vertex labelling map is injective
    for g in range(z12.n_vertices):
        grid = z12.squares_of_vertex(g)
        assert len(np.unique(grid)) == grid.size


def test_square_count_formula_when_n2c(z5, z12, p13):
    for x in (z5, z12, p13):
        assert x.check_conditions().n2c
        assert x.n_squares == x.n_vertices * x.nA * x.nB // 4


def test_tnc_implies_n2c_on_all_fixtures(z3, z5, z12, p13):
    for x in (z3, z5, z12, p13, toy(4, (2,)), toy(10, (1, 3, 5, 7, 9))):
        cond = x.check_conditions()
        assert (not cond.tnc) or cond.n2c


def test_psl2_13_tnc_fails_n2c_holds(p13):
    cond = p13.check_conditions()
    assert not cond.tnc          # transvections are conjugate within the set
    assert cond.n2c              # no order-2 generators
    g, a, b = cond.tnc_witness
    grp = p13.group
    assert grp.mul(g, a) == grp.mul(b, g)


def test_edge_identity_both_representatives(z5, p13):
    for x in (z5, p13):
        for i in range(x.nA):
            ag = x.left_perms[i]
            assert np.array_equal(x.edge_at[i], x.edge_at[x.a_inv_pos[i], ag])
        for j in range(x.nB):
            gb = x.right_perms[j]
            assert np.array_equal(
                x.edge_at[x.nA + j], x.edge_at[x.nA + x.b_inv_pos[j], gb])


def test_labelling_edge_rep_independent(z5, p13):
    # iota_<a,g> computed from either root gives the same square list
    for x in (z5, p13):
        for i in range(x.nA):
            ag = x.left_perms[i]
            assert np.array_equal(
                x.square_id[i, :, :], x.square_id[x.a_inv_pos[i], ag, :])


def test_matching_labels(z3, z5, z12, p13):
    # the b-th square of the a-th neighbor equals the a-th square of the
    # b-th neighbor; in id terms, one shared grid serves all three maps
    for x in (z3, z5, z12, p13):
        for _ in range(50):
            rng = np.random.default_rng(0)
            i = int(rng.integers(x.nA))
            g = int(rng.integers(x.n_vertices))
            j = int(rng.integers(x.nB))
            e_left = int(x.edge_at[i, g])
            e_right = int(x.edge_at[x.nA + j, g])
            s = x.canonical_square(i, g, j)
            assert s in set(x.squares_of_edge(e_left).tolist())
            assert s in set(x.squares_of_edge(e_right).tolist())


def test_equivalence_class_ids(p13):
    rng = np.random.default_rng(42)
    grp = p13.group
    for _ in range(1000):
        i = int(rng.integers(p13.nA))
        g = int(rng.integers(p13.n_vertices))
        j = int(rng.integers(p13.nB))
        s = p13.canonical_square(i, g, j)
        ag = int(p13.left_perms[i, g])
        gb = int(p13.right_perms[j, g])
        agb = int(p13.right_perms[j, ag])
        ii, jj = int(p13.a_inv_pos[i]), int(p13.b_inv_pos[j])
        assert s == p13.canonical_square(ii, ag, j)
        assert s == p13.canonical_square(ii, agb, jj)
        assert s == p13.canonical_square(i, gb, jj)


def test_incidence_mutual_consistency(z5, z12):
    for x in (z5, z12):
        for s in range(x.n_squares):
            for g in x.square_vertices(s):
                assert s in set(np.unique(x.squares_of_vertex(g)).tolist())
            for e in x.square_edges(s):
                assert s in set(x.squares_of_edge(e).tolist())
        # and conversely each edge's slots contain only squares through it
        for e in range(x.n_edges):
            for s in set(x.squares_of_edge(e).tolist()):
                assert e in x.square_edges(s)


def test_slot_count_per_edge(z5, p13):
    for x in (z5, p13):
        slots = x.edge_slot_table()
        assert slots.shape == (x.n_edges, x.nA)
        total = x.n_left_edges * x.nB + x.n_right_edges * x.nA
        assert total == x.n_vertices * x.nA * x.nB


def test_edge_endpoints(z5):
    for e in range(z5.n_edges):
        u, v = z5.edge_endpoints(e)
        assert u != v
        t, pos, g = z5.edge_rep[e]
        assert u == g
        if t == LEFT:
            assert v == z5.left_perms[pos, g]
        else:
            assert v == z5.right_perms[pos, g]


def test_edge_endpoint_arrays_match_edge_endpoints(z5, z12, p13):
    for x in (z5, z12, p13):
        u, v = x.edge_endpoint_arrays()
        assert list(zip(u.tolist(), v.tolist())) == [
            x.edge_endpoints(e) for e in range(x.n_edges)]


def test_serialization_roundtrip(z5):
    blob = serialize_complex(z5)
    x2 = deserialize_complex(blob)
    assert x2.n_squares == z5.n_squares
    assert np.array_equal(x2.square_id, z5.square_id)
    assert np.array_equal(x2.edge_at, z5.edge_at)
    assert complex_content_hash(x2) == complex_content_hash(z5)


def test_deserialize_rejects_corrupt(z5):
    blob = serialize_complex(z5)
    with pytest.raises(Exception):
        deserialize_complex(blob[: len(blob) // 2])


def test_manifest_fields(z12):
    m = z12.manifest()
    assert m["format"] == "cay2 v1"
    assert m["counts"]["edges"] == 24
    assert m["counts"]["squares"] == 12
    assert m["tnc"] is True
