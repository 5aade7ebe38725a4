"""Session-scoped instances shared between the unit and acceptance suites."""

import pytest

from cayleyltc import analysis, codes, ltc, spectral
from cayleyltc.complexes import build_complex
from cayleyltc.f2core import BitVector
from cayleyltc.groups import GeneratorSet, cayley_graph, cyclic_group, lps_generators, psl2


def rows_orthogonal(A, B):
    """Reference for A B^T = 0 over GF(2): A times each row of B is zero."""
    return not any(A.matvec(BitVector(b)).words.any() for b in B.to_array())


def group_mul(grp, i, j):
    """Reference product of the elements i and j of a cyclic or PSL2 group:
    residues added mod n, or the 2x2 matrices grp.mats multiplied mod q and
    the product looked up by index_of."""
    if grp.kind == "cyclic":
        return (i + j) % grp.order
    a, b, c, d = (int(x) for x in grp.mats[i])
    e, f, g, h = (int(x) for x in grp.mats[j])
    return grp.index_of([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])


def build_toy(n, a_gens, b_gens=None):
    g = cyclic_group(n)
    A = GeneratorSet(g, a_gens, side="left")
    B = GeneratorSet(g, b_gens if b_gens is not None else a_gens, side="right")
    return build_complex(g, A, B)


@pytest.fixture(scope="session")
def p13_instance():
    """psl2(13) with the transvection generators and the parity[4,3,2] base."""
    g = psl2(13)
    t = g.index_of([1, 1, 0, 1])
    u = g.index_of([1, 0, 1, 1])
    gens = tuple(sorted({t, int(g.inverse[t]), u, int(g.inverse[u])}))
    X = build_complex(g, GeneratorSet(g, gens, side="left"),
                      GeneratorSet(g, gens, side="right"))
    C1 = codes.parity_code(4)
    code = codes.square_code(X, C1)
    lam = spectral.second_eigenvalue(
        cayley_graph(g, X.A, "left"), method="dense").lam
    return X, C1, code, ltc.SquareCodeTester(X, C1, code), lam


@pytest.fixture(scope="session")
def lps41():
    return lps_generators(psl2(41), 5)


@pytest.fixture(scope="session")
def toy_instances():
    out = {}
    for name, n, a, b, base in [
        ("z5", 5, (1, 4), None, codes.repetition_code(2)),
        ("z12", 12, (1, 11), (5, 7), codes.repetition_code(2)),
        ("z20", 20, (1, 19), None, codes.repetition_code(2)),
        ("z10", 10, (1, 3, 5, 7, 9), None, codes.parity_code(5)),
    ]:
        X = build_toy(n, a, b)
        code = codes.square_code(X, base)
        out[name] = (X, base, code, ltc.SquareCodeTester(X, base, code))
    return out


@pytest.fixture(scope="session")
def sigma_parity4():
    return analysis.sigma_exact(codes.parity_code(4)).value
