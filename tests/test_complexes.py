import io
import json
import tracemalloc

import numpy as np
import pytest
from conftest import group_mul
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyltc.complexes import (
    LEFT,
    build_complex,
    canonical_ids,
    deserialize_complex,
    serialize_complex,
)
from cayleyltc.groups import GeneratorSet, cyclic_group, lps_generators, psl2

TABLES = ("edge_at", "edge_rep", "square_id", "square_rep", "square_class_size")


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
    gens = tuple(sorted({t, int(g.inverse[t]), u, int(g.inverse[u])}))
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


def test_z4_degenerate_square():
    x = toy(4, (2,))
    cond = x.check_conditions()
    assert not cond.n2c
    # the degenerate classes have two triples each
    assert set(x.square_class_size.tolist()) == {2}
    assert np.array_equal(x.square_class_size, np.bincount(x.square_id.ravel()))
    assert x.n_squares == 4 * 1 * 1 // 2


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


def two_collision_tnc(X):
    """Reference: TNC fails iff ag = gb or g = agb for some a, g, b."""
    g = np.arange(X.n_vertices)
    ag = X.left_perms[:, :, None]
    gb = X.right_perms.T[None, :, :]
    agb = X.right_perms[:, X.left_perms].transpose(1, 2, 0)
    return not ((ag == gb) | (g[None, :, None] == agb)).any()


def brute_force_tnc(X):
    """Reference: ag != gb for every (a, g, b), by the scalar product."""
    grp = X.group
    return all(group_mul(grp, a, g) != group_mul(grp, g, b)
               for a in X.A.indices for g in range(grp.order) for b in X.B.indices)


def random_symmetric_set(grp, rng, side):
    """The inverse closure of two or three random non-identity elements."""
    xs = rng.integers(1, grp.order, size=int(rng.integers(2, 4))).tolist()
    return GeneratorSet(grp, tuple(sorted({y for x in xs for y in (x, int(grp.inverse[x]))})),
                        side)


def test_tnc_one_comparison_matches_the_two_collision_reference():
    # ag = gb alone decides TNC on symmetric A: g = agb is a^-1 g = gb; the
    # brute force checks the decision against the group product itself
    rng = np.random.default_rng(7)
    verdicts = []
    for grp in (cyclic_group(12), cyclic_group(20), cyclic_group(30),
                psl2(7), psl2(11), psl2(13)):
        for _ in range(6):
            A = random_symmetric_set(grp, rng, "left")
            B = random_symmetric_set(grp, rng, "right")
            X = build_complex(grp, A, B)
            cond = X.check_conditions()
            assert cond.tnc == two_collision_tnc(X), (grp.manifest(), A.indices, B.indices)
            assert cond.tnc == brute_force_tnc(X), (grp.manifest(), A.indices, B.indices)
            verdicts.append(cond.tnc)
    assert 0 < sum(verdicts) < len(verdicts)


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
        slots = x.edge_slot_table()
        left = slots[x.edge_at[:x.nA]]              # (nA, n, r): squares of edge <g; a>
        right = slots[x.edge_at[x.nA:]]             # (nB, n, r): squares of edge <g; b>
        s = x.square_id                             # (nA, n, nB)
        assert (s[..., None] == left[:, :, None, :]).any(axis=-1).all()
        assert (s[..., None] == right.transpose(1, 0, 2)[None]).any(axis=-1).all()


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
        slots = x.edge_slot_table()
        edges_of = {s: set() for s in range(x.n_squares)}
        for i in range(x.nA):
            for g in range(x.n_vertices):
                for j in range(x.nB):
                    # slot (i, g, j) lies along <g; a_i> at b_j, and along
                    # <g; b_j> at a_i, whichever root names the edge
                    s = x.canonical_square(i, g, j)
                    e_left, e_right = int(x.edge_at[i, g]), int(x.edge_at[x.nA + j, g])
                    assert slots[e_left, j] == s
                    assert slots[e_right, i] == s
                    edges_of[s] |= {e_left, e_right}
        # and conversely each edge's slots contain only squares through it
        for e in range(x.n_edges):
            for s in set(slots[e].tolist()):
                assert e in edges_of[s]


def test_slot_count_per_edge(z5, p13):
    for x in (z5, p13):
        slots = x.edge_slot_table()
        assert slots.shape == (x.n_edges, x.nA)
        total = x.n_left_edges * x.nB + x.n_right_edges * x.nA
        assert total == x.n_vertices * x.nA * x.nB


def edge_endpoints(x, e):
    """Reference: the endpoints (root, far vertex) of edge e, one edge."""
    t, pos, g = (int(v) for v in x.edge_rep[e])
    lbl = pos if t == LEFT else x.nA + pos
    return g, int(x.vert_image[lbl, g])


def test_edge_endpoints(z5):
    for e in range(z5.n_edges):
        u, v = edge_endpoints(z5, e)
        assert u != v
        t, pos, g = z5.edge_rep[e]
        assert u == g
        if t == LEFT:
            assert v == z5.left_perms[pos, g]
        else:
            assert v == z5.right_perms[pos, g]


def test_edge_endpoint_arrays_match_edge_endpoints(z5, z12, p13):
    for x in (z5, z12, p13):
        lbl, root = x.edge_rep_slots()
        assert np.array_equal(x.edge_at[lbl, root], np.arange(x.n_edges))
        assert np.array_equal(x.label_type[lbl], x.edge_rep[:, 0])
        far = x.vert_image[lbl, root]
        assert list(zip(root.tolist(), far.tolist())) == [
            edge_endpoints(x, e) for e in range(x.n_edges)]


def test_serialization_roundtrip(z5):
    blob = serialize_complex(z5)
    x2 = deserialize_complex(blob)
    assert x2.n_squares == z5.n_squares
    assert np.array_equal(x2.square_id, z5.square_id)
    assert np.array_equal(x2.edge_at, z5.edge_at)
    assert_same_complex(x2, z5)


def test_deserialize_rejects_corrupt(z5):
    blob = serialize_complex(z5)
    with pytest.raises(Exception):
        deserialize_complex(blob[: len(blob) // 2])


def test_manifest_fields(z12):
    m = z12.manifest()
    assert m["format"] == "cay2 v2"
    assert m["counts"]["edges"] == 24
    assert m["counts"]["squares"] == 12
    assert m["tnc"] is True


# ---------------------------------------------------------------------------
# Reference construction: canonical keys ranked by np.unique
# ---------------------------------------------------------------------------


def unique_canonical_ids(perms, inv_pos):
    k, n = perms.shape
    keys = np.arange(k, dtype=np.int64)[:, None] * n + np.arange(n, dtype=np.int64)
    canon = np.minimum(keys, inv_pos[:, None] * n + perms)
    uniq, inverse = np.unique(canon.ravel(), return_inverse=True)
    return len(uniq), inverse.reshape(k, n).astype(np.int64), uniq


def unique_square_tables(X):
    n, nA, nB = X.n_vertices, X.nA, X.nB
    g = np.arange(n, dtype=np.int64)
    i = np.arange(nA, dtype=np.int64)
    j = np.arange(nB, dtype=np.int64)
    ag = X.left_perms
    gb = X.right_perms
    agb = np.ascontiguousarray(X.right_perms[:, ag].transpose(1, 2, 0))

    def key(ii, gg, jj):
        return (ii * n + gg) * nB + jj

    k0 = key(i[:, None, None], g[None, :, None], j[None, None, :])
    k1 = key(X.a_inv_pos[:, None, None], ag[:, :, None], j[None, None, :])
    k2 = key(X.a_inv_pos[:, None, None], agb, X.b_inv_pos[None, None, :])
    k3 = key(i[:, None, None], gb.T[None, :, :], X.b_inv_pos[None, None, :])
    canon = np.minimum(np.minimum(k0, k1), np.minimum(k2, k3))
    uniq, inverse = np.unique(canon.ravel(), return_inverse=True)
    return {
        "square_id": inverse.reshape(nA, n, nB).astype(np.int64),
        "square_rep": np.stack([uniq // (n * nB), (uniq // nB) % n, uniq % nB], axis=1),
        "square_class_size": np.bincount(inverse, minlength=len(uniq)),
    }


def unique_tables(X):
    n = X.n_vertices
    nl, left_ids, left_keys = unique_canonical_ids(X.left_perms, X.a_inv_pos)
    nr, right_ids, right_keys = unique_canonical_ids(X.right_perms, X.b_inv_pos)
    edge_rep = np.empty((nl + nr, 3), dtype=np.int64)
    edge_rep[:nl] = np.stack(
        [np.zeros_like(left_keys), left_keys // n, left_keys % n], axis=1)
    edge_rep[nl:] = np.stack(
        [np.ones_like(right_keys), right_keys // n, right_keys % n], axis=1)
    return {"edge_at": np.concatenate([left_ids, right_ids + nl]),
            "edge_rep": edge_rep, **unique_square_tables(X)}


def assert_reference_tables(X):
    ref = unique_tables(X)
    for name in TABLES:
        got = getattr(X, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    assert X.n_squares == len(ref["square_rep"])
    assert X.n_left_edges == int((ref["edge_rep"][:, 0] == LEFT).sum())


def lps41():
    S = lps_generators(psl2(41), 5)
    return build_complex(S.group, GeneratorSet(S.group, S.indices, side="left"),
                         GeneratorSet(S.group, S.indices, side="right"))


def test_tables_match_unique_reference(z3, z5, z12, p13):
    for x in (z3, toy(4, (2,)), z5, z12, p13, lps41()):
        assert_reference_tables(x)


def symmetric_gens(n):
    """A nonempty inverse-closed subset of Z_n without 0."""
    return st.sets(st.integers(1, n - 1), min_size=1, max_size=4).map(
        lambda s: tuple(sorted(s | {(-x) % n for x in s})))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40).flatmap(
    lambda n: st.tuples(st.just(n), symmetric_gens(n), symmetric_gens(n))))
def test_random_cyclic_tables_match_unique_reference(case):
    n, a, b = case
    x = toy(n, a, b)
    assert_reference_tables(x)
    for perms, inv_pos in ((x.left_perms, x.a_inv_pos), (x.right_perms, x.b_inv_pos)):
        count, ids, keys = canonical_ids(perms, inv_pos)
        ref_count, ref_ids, ref_keys = unique_canonical_ids(perms, inv_pos)
        assert count == ref_count
        assert np.array_equal(ids, ref_ids) and np.array_equal(keys, ref_keys)


# ---------------------------------------------------------------------------
# Artifacts: the manifest alone, the complex rebuilt and checked on load
# ---------------------------------------------------------------------------


def container(manifest):
    buf = io.BytesIO()
    np.savez_compressed(buf, manifest=np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8))
    return buf.getvalue()


def assert_same_complex(x, y):
    assert x.manifest() == y.manifest()
    for name in TABLES:
        assert np.array_equal(getattr(x, name), getattr(y, name)), name


def test_v2_artifact_is_the_manifest_alone(z12, p13):
    for x in (z12, p13):
        blob = serialize_complex(x)
        with np.load(io.BytesIO(blob)) as z:
            assert z.files == ["manifest"]
            assert json.loads(bytes(z["manifest"]).decode()) == x.manifest()
        assert len(blob) < 1000
        assert_same_complex(deserialize_complex(blob), x)


@pytest.mark.parametrize("field, value, reason", [
    ("counts", {"squares": 6}, "'counts'"),
    ("tnc", True, "'tnc'"),
    ("n2c", False, "'n2c'"),
    ("A", [2, 3], "'tnc'"),            # a valid set of another complex
    ("A", [1, 2], "not symmetric"),
    ("format", "cay2 v3", "not a cay2"),
    ("format", "cay2 v1", "not a cay2"),
])
def test_v2_artifact_with_an_altered_field_is_rejected(z5, field, value, reason):
    manifest = z5.manifest()
    manifest[field] = (manifest[field] | value) if isinstance(value, dict) else value
    with pytest.raises(ValueError, match=reason):
        deserialize_complex(container(manifest))


def test_build_peak_memory_is_bounded_by_its_tables():
    g = psl2(13)
    A = GeneratorSet(g, (79, 90, 91, 234), side="left")
    B = GeneratorSet(g, (79, 90, 91, 234), side="right")
    build_complex(g, A, B)
    tracemalloc.start()
    try:
        x = build_complex(g, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(getattr(x, name).nbytes for name in TABLES)


@pytest.mark.parametrize("name", ["z3", "z4", "z5", "z12", "p13", "z64"])
def test_vertices_of_squares_are_the_views_that_hold_them(request, name):
    # z3 repeats squares in a view, z4 and z64 (generator 32) fail N2C
    X = {"z4": lambda: toy(4, (2,)), "z64": lambda: toy(64, (1, 63, 32))}.get(
        name, lambda: request.getfixturevalue(name))()
    holds = [set(np.nonzero((X.square_id == s).any(axis=(0, 2)))[0].tolist())
             for s in range(X.n_squares)]
    for s in range(X.n_squares):
        assert X.vertices_of_squares(np.array([s])).tolist() == sorted(holds[s])
    rng = np.random.default_rng(3)
    for size in (0, 2, 7):
        squares = rng.choice(X.n_squares, size=min(size, X.n_squares), replace=False)
        got = X.vertices_of_squares(squares)
        assert got.tolist() == sorted(set().union(*(holds[s] for s in squares)))


@pytest.mark.parametrize("size, holds", [(3, False), (1, False), (0, False), (4, True)])
def test_verify_counts_refuses_a_class_size_other_than_2_or_4(size, holds):
    X = toy(5, (1, 4))
    X.square_class_size = X.square_class_size.copy()
    X.square_class_size[0] = size
    if holds:
        X.verify_counts()
    else:
        with pytest.raises(AssertionError, match="2 or 4"):
            X.verify_counts()
