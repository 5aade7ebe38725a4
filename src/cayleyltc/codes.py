"""Linear code constructions.

Base codes (repetition, parity, BCH), tensor squares, Sipser-Spielman
Tanner codes on labelled regular graphs, and the square-complex codes whose
bits live on the squares of a left/right Cayley complex.  Every code is its
parity checks in reduced row echelon form; its generator is read off them
when first used.  The square code is eliminated from its edge-wise checks
(the length-r base code on every edge) alone; that its kernel is the
vertex-wise code (the tensor square on every vertex) follows from two exact
facts checked at construction, one on the complex's slot tables and one on
the r x r grid.

Coordinate conventions, used everywhere: tensor coordinates (a, b) are
serialized row-major with rows indexed by A; "F_2^r (x) C" means every row
lies in C and "C (x) F_2^r" means every column lies in C.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import numpy as np

from . import f2core
from .complexes import CayleyComplex, canonical_ids
from .f2core import BitMatrix, BitVector, DimensionBudgetError
from .groups import FiniteGroup, GeneratorSet, Graph

SQUARE_CODE_COORD_BUDGET = 20000


class LinearCode:
    """A binary linear code, held as its parity checks H in reduced row
    echelon form without zero rows (k = n - rows), which the constructor
    certifies; from_parity_checks reduces any checks to it first.  The
    generator, read off H on first use, is I_k on H's non-pivot columns,
    the `information_set`, and H^T on its pivots, so G H^T = 0."""

    def __init__(self, parity: BitMatrix, provenance: str, params: dict | None):
        if not f2core.reduced_echelon(parity):
            raise ValueError("parity checks are not in reduced row echelon form")
        self.n = parity.cols
        self.parity = parity
        self.k = parity.cols - parity.rows
        self.provenance = provenance
        self.params = dict(params or {})
        self.information_set = np.setdiff1d(
            np.arange(self.n), f2core._leading_bits(parity.words))
        self._distance: int | None = None

    @functools.cached_property
    def generator(self) -> BitMatrix:
        """G, read off H by the first caller and kept."""
        return f2core.reduced_kernel_basis(self.parity)

    def _encode(self, coeffs: np.ndarray) -> np.ndarray:
        """The packed sum of the generator rows selected by the boolean coeffs."""
        return np.bitwise_xor.reduce(self.generator.words[coeffs], axis=0)

    @classmethod
    def from_parity_checks(cls, rows: BitMatrix, provenance: str = "explicit",
                           params: dict | None = None) -> "LinearCode":
        return cls(f2core.row_basis(rows), provenance, params)

    @property
    def rate(self) -> float:
        return self.k / self.n if self.n else 0.0

    def contains(self, v: BitVector) -> bool:
        """Whether v is the codeword its bits on the information set encode."""
        if v.n != self.n:
            raise ValueError(f"length mismatch: {v.n} != {self.n}")
        info = self.information_set
        coeffs = (v.words[info >> 6] >> (info & 63).astype(np.uint64)) & np.uint64(1)
        return bool(np.array_equal(self._encode(coeffs == 1), v.words))

    def codewords(self) -> np.ndarray:
        """All 2^k codewords as a (2^k, n) 0/1 array, row x the sum of the
        generator rows at the set bits of x; refused for k > 24."""
        f2core.check_enum_budget(self.k)
        return f2core._unpack_bits(f2core._xor_table(self.generator.words), self.n)

    def distance_exact(self) -> int:
        """Exact minimum distance, the least weight in the packed codeword
        table past row 0: the generator has full rank, so only row 0 is the
        zero word.  The zero code and k > 24 are refused before the table
        is built."""
        if self._distance is None:
            _check_distance_budget(self.k)
            table = f2core._xor_table(self.generator.words)
            self._distance = int(np.bitwise_count(table[1:]).sum(axis=1).min())
        return self._distance

    def normalized_distance(self) -> float:
        return self.distance_exact() / self.n

    def random_codeword(self, rng: np.random.Generator) -> BitVector:
        coeffs = rng.integers(0, 2, size=self.k)
        return BitVector._from_words(self._encode(coeffs == 1), self.n)

    def sidecar_json(self) -> str:
        return json.dumps({
            "n": self.n, "k": self.k, "provenance": self.provenance,
            "parameters": self.params,
        }, sort_keys=True)

    def __repr__(self) -> str:
        d = f",{self._distance}" if self._distance is not None else ""
        return f"LinearCode[{self.n},{self.k}{d}]({self.provenance})"


def repetition_code(n: int) -> LinearCode:
    """The code of the adjacent-pair checks x_i + x_(i+1)."""
    eye = np.eye(n, dtype=np.uint8)
    return LinearCode.from_parity_checks(BitMatrix(eye[1:] ^ eye[:-1]), provenance="explicit",
                                         params={"family": "repetition", "n": n})


def parity_code(n: int) -> LinearCode:
    return LinearCode.from_parity_checks(BitMatrix(np.ones((1, n))), provenance="explicit",
                                         params={"family": "parity", "n": n})


def full_code(n: int) -> LinearCode:
    return LinearCode.from_parity_checks(BitMatrix.zeros(0, n), provenance="explicit",
                                         params={"family": "full", "n": n})


# ---------------------------------------------------------------------------
# BCH codes
# ---------------------------------------------------------------------------

# one fixed primitive polynomial per field degree (bit i = coefficient of x^i)
PRIMITIVE_POLY = {
    3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011, 7: 0b10001001,
    8: 0b100011101, 9: 0b1000010001, 10: 0b10000001001, 11: 0b100000000101,
    12: 0b1000001010011, 13: 0b10000000011011, 14: 0b100010001000011,
    15: 0b1000000000000011, 16: 0b10001000000001011,
}


def bch_code(m: int, b: int) -> LinearCode:
    """Primitive narrow-sense binary BCH code of length 2^m - 1.

    The words c with c(alpha^j) = 0 for j = 1 .. b-1 (MacWilliams & Sloane
    1977, ch. 7), alpha a root of PRIMITIVE_POLY[m]: each odd j gives the m
    bit-rows of alpha^(i j), i < n, as checks.  Even j add none, since
    c(alpha^2j) = c(alpha^j)^2 for binary c.  The BCH bound gives distance
    >= b.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    n = (1 << m) - 1
    if not 2 <= b <= n:
        raise ValueError(f"designed distance must lie in [2, {n}], got {b}")
    if m not in PRIMITIVE_POLY:
        raise ValueError(f"no primitive polynomial tabulated for m={m}")
    powers = np.zeros(n, dtype=np.int64)          # powers[e] = alpha^e, shift and reduce
    x = 1
    for e in range(n):
        powers[e] = x
        x <<= 1
        if x >> m:
            x ^= PRIMITIVE_POLY[m]
    zeros = powers[np.arange(1, b, 2)[:, None] * np.arange(n) % n]
    bits = zeros[:, None, :] >> np.arange(m)[None, :, None] & 1
    code = LinearCode.from_parity_checks(BitMatrix(bits.reshape(-1, n)), provenance="bch",
                                         params={"m": m, "b": b})
    if code.k <= f2core.MAX_ENUM_DIMENSION:
        assert code.distance_exact() >= b, "BCH bound violated"
    return code


# ---------------------------------------------------------------------------
# Tensor codes
# ---------------------------------------------------------------------------


def _local_checks(views: np.ndarray, h_bits: np.ndarray, n: int) -> BitMatrix:
    """Checks on F_2^n, row v * len(h_bits) + i = parity row i of the local
    code placed on the coordinates views[v].

    Each placed bit is XORed straight into the packed words, one local
    coordinate at a time for all views, so repeated coordinates cancel mod
    2 and no dense matrix is made.
    """
    nv, nh = len(views), len(h_bits)
    words = np.zeros((nv * nh, max(1, -(-n // 64))), dtype=np.uint64)
    base = np.arange(nv)[:, None] * nh
    for c in range(views.shape[1]):
        rows = base + np.flatnonzero(h_bits[:, c])
        words[rows, views[:, c, None] >> 6] ^= np.uint64(1) << (
            views[:, c, None] & 63).astype(np.uint64)
    return BitMatrix._from_words(words, nv * nh, n)


def _row_column_checks(C1: LinearCode) -> BitMatrix:
    """The checks of C1 on every row and every column of the r x r grid."""
    r = C1.n
    grid = np.arange(r * r).reshape(r, r)
    return _local_checks(np.vstack([grid, grid.T]), C1.parity.to_array(), r * r)


def tensor_code(C1: LinearCode) -> LinearCode:
    """C1 (x) C1 on the r x r grid: all rows and all columns in C1."""
    code = LinearCode.from_parity_checks(_row_column_checks(C1), provenance="tensor",
                                         params={"r": C1.n, "k1": C1.k})
    assert code.k == C1.k * C1.k, "tensor dimension must be k1^2"
    return code


# ---------------------------------------------------------------------------
# Tanner codes on labelled regular graphs
# ---------------------------------------------------------------------------


def graph_edge_labelling(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids for a simple regular graph plus a per-vertex labelling.

    Returns (edges, labelling) where edges[i] = (u, v), u < v, is the vertex
    pair of edge i, in lexicographic order, and labelling[v] lists the
    incident edge ids in ascending order.  An arc's edge id is the rank of
    its key min * n + max among the sorted keys of the u < v arcs.
    """
    n, (u, v) = graph.n_vertices, graph.arcs.T
    keys = np.sort(u[u < v] * n + v[u < v])
    assert np.array_equal(keys, np.sort(v[u > v] * n + u[u > v])), "arcs not mirrored"
    if (u == v).any() or (keys[1:] == keys[:-1]).any():
        raise ValueError("Tanner codes need a simple graph")
    ids = np.searchsorted(keys, np.minimum(u, v) * n + np.maximum(u, v))
    labelling = ids[np.lexsort((ids, u))].reshape(n, graph.degree)
    return np.stack([keys // n, keys % n], axis=1), labelling


def cayley_edge_labelling(G: FiniteGroup, S: GeneratorSet) -> tuple[int, np.ndarray]:
    """Edge labelling of the left Cayley graph Cay(S;G) by generator position.

    Edge <s,g> (connecting g and sg) gets the coordinate of s at vertex g
    and of s^-1 at vertex sg; ids follow the canonical (min position, root)
    representative.  Returns (n_edges, labelling).
    """
    perms = np.stack([G.left_perm(s) for s in S.indices])
    n_edges, edge_ids, _ = canonical_ids(perms, S.inverse_positions)
    return n_edges, edge_ids.T.copy()   # labelling[v, pos]


def tanner_code(n_edges: int, labelling: np.ndarray, C0: LinearCode,
                params: dict | None = None) -> LinearCode:
    """Edge-bit code: the local view at every vertex must lie in C0.

    labelling[v] maps local coordinates 0..deg-1 to edge ids; its width
    must equal the length of C0.
    """
    labelling = np.asarray(labelling, dtype=np.int64)
    if labelling.shape[1] != C0.n:
        raise ValueError(
            f"local code length {C0.n} != vertex degree {labelling.shape[1]}")
    checks = _local_checks(labelling, C0.parity.to_array(), n_edges)
    code = LinearCode.from_parity_checks(checks, provenance="tanner", params=params)
    assert code.k * C0.n >= (2 * C0.k - C0.n) * n_edges, "Tanner rate bound violated"
    code.params.setdefault("rho0", C0.rate)
    code.params.setdefault("k0", C0.k)
    code.params.setdefault("n0", C0.n)
    return code


def tanner_code_on_graph(graph: Graph, C0: LinearCode) -> LinearCode:
    pairs, labelling = graph_edge_labelling(graph)
    return tanner_code(len(pairs), labelling, C0,
                       params={"graph": graph.name, "n_vertices": graph.n_vertices})


def tanner_code_on_cayley(G: FiniteGroup, S: GeneratorSet, C0: LinearCode) -> LinearCode:
    n_edges, labelling = cayley_edge_labelling(G, S)
    return tanner_code(n_edges, labelling, C0,
                       params={"group": G.manifest(), "S": list(S.indices)})


# ---------------------------------------------------------------------------
# Square-complex codes
# ---------------------------------------------------------------------------


def _edge_wise_checks(X: CayleyComplex, C1: LinearCode) -> np.ndarray:
    """He as a dense 0/1 array (square_code places it packed)."""
    return _local_checks(X.edge_slot_table(), C1.parity.to_array(), X.n_squares).to_array()


def _vertex_wise_checks(X: CayleyComplex, C0: LinearCode) -> np.ndarray:
    """Hv as a dense 0/1 array."""
    views = X.square_id.transpose(1, 0, 2).reshape(X.n_vertices, -1)
    return _local_checks(views, C0.parity.to_array(), X.n_squares).to_array()


def check_square_code_budget(n_squares: int) -> None:
    """Refuse a square code on more than SQUARE_CODE_COORD_BUDGET coordinates
    (squares)."""
    if n_squares > SQUARE_CODE_COORD_BUDGET:
        raise DimensionBudgetError(f"square code on {n_squares} coordinates "
                                   f"exceeds budget {SQUARE_CODE_COORD_BUDGET}")


def square_code(X: CayleyComplex, C1: LinearCode) -> LinearCode:
    """The code on F_2^S whose view along every edge lies in C1.

    Eliminates the edge-wise checks He (C1's checks on the squares est[e]
    along each edge e) once, for H; no generator is derived here.
    Two exact facts, each with its own AssertionError, prove that ker He is
    the kernel of the vertex-wise checks Hv (C0 = tensor_code(C1) on each
    vertex's r x r grid of squares):

    - global: grid row a at vertex g is est[edge_at[a, g]], column b is
      est[edge_at[nA + b, g]], and some slot names every edge;
    - local: C1's row and column checks on the grid, C0's checks and the
      two stacked have one rank, so the checks span one row space.

    Placing checks on a view is linear (repeated squares fold mod 2), so
    each row of Hv is a sum of placed row and column checks, which are rows
    of He, and each row of He is placed at a slot that names its edge: He
    and Hv have one row space, so one kernel.
    """
    r = X.nA
    if X.nA != X.nB:
        raise ValueError(f"square codes need |A| = |B|, got {X.nA} != {X.nB}")
    if C1.n != r:
        raise ValueError(f"base code length {C1.n} != degree r = {r}")
    check_square_code_budget(X.n_squares)
    est = X.edge_slot_table()
    if not (np.bincount(X.edge_at.ravel(), minlength=len(est)).all()
            and np.array_equal(X.square_id, est[X.edge_at[:r]])
            and np.array_equal(X.square_id.transpose(2, 1, 0), est[X.edge_at[r:]])):
        raise AssertionError("vertex views are not the views along their edges")
    C0, checks = tensor_code(C1), _row_column_checks(C1)
    if not f2core.rank(checks) == f2core.rank(checks.stack(C0.parity)) == C0.parity.rows:
        raise AssertionError("tensor code is not the row-and-column code of C1")
    code = LinearCode.from_parity_checks(
        _local_checks(est, C1.parity.to_array(), X.n_squares), provenance="square",
        params={"r": r, "k1": C1.k, "group": X.group.manifest()})
    assert code.k * r >= (4 * C1.k - 3 * r) * X.n_squares, "square rate bound violated"
    assert 4 * X.n_squares >= r * r * X.n_vertices
    return code


# ---------------------------------------------------------------------------
# Bound checkers (rate/distance propositions)
# ---------------------------------------------------------------------------


def _check_distance_budget(k: int) -> None:
    """Refuse the exact distance of a k-dimensional code before any row is
    read: the zero code has none, and k > MAX_ENUM_DIMENSION is refused."""
    if k == 0:
        raise ValueError("zero code has no distance")
    f2core.check_enum_budget(k)


def _distance_bound_record(code, delta0, lam, bound_fn) -> dict:
    """Shared shape for the two distance-bound propositions.

    code needs only n, k and distance_exact(), which is called only when
    the hypothesis holds and the distance is within budget.  delta0 and lam
    are rationals or floats; the hypothesis and the verdict are decided on
    their exact values, and lambda, delta0 and bound are reported as floats.
    Bounds are evaluated with lambda clamped below at 0: the expansion
    parameter in the propositions is a positive upper bound, so a negative
    second eigenvalue (complete graphs) certifies at least lambda -> 0+.
    """
    d0, lam_eff = Fraction(delta0), max(Fraction(lam), 0)
    rec = {
        "lambda": float(lam), "delta0": float(delta0),
        "hypothesis_holds": d0 > lam_eff,
        "bound": bound_fn(float(delta0), max(float(lam), 0.0)) * code.n,
    }
    if not rec["hypothesis_holds"]:
        rec["verdict"] = "na"
        rec["reason"] = "delta0 <= lambda: proposition hypothesis fails"
        return rec
    try:
        _check_distance_budget(code.k)
    except ValueError as exc:
        rec["verdict"] = "na"
        rec["reason"] = f"exact distance unavailable: {exc}"
        return rec
    rec["distance"] = d = code.distance_exact()
    rec["verdict"] = "pass" if d >= bound_fn(d0, lam_eff) * code.n else "fail"
    return rec


def check_tanner_distance_bound(code: LinearCode, delta0: float, lam: float) -> dict:
    """delta(C) >= delta0 (delta0 - lambda) when delta0 > lambda."""
    return _distance_bound_record(code, delta0, lam,
                                  lambda d, l: d * (d - l))


def check_square_distance_bound(code, delta1, lam) -> dict:
    """delta(C) >= (1/4) delta1^2 (delta1 - lambda) when delta1 > lambda.

    `analyze --which distance` passes the n and k that build recorded, with
    a distance_exact() that loads the recorded code, so the code is read
    only when its distance decides the verdict.
    """
    return _distance_bound_record(code, delta1, lam,
                                  lambda d, l: d * d * (d - l) / 4)


def check_rate_bound(k: int, n: int, r: int, k1: int) -> dict:
    """k >= (4 rho1 - 3) n for a square code of dimension k on n squares
    over a base code of length r and dimension k1, with rho1 = k1 / r.
    `analyze --which rate` passes the k and n that build recorded, so no
    code is built to judge it.

    The verdict is decided in integers, k r >= (4 k1 - 3 r) n; the float
    bound is reported alongside.  Tanner codes need no checker here:
    tanner_code asserts k n0 >= (2 k0 - n0) n when it builds the code.
    """
    return {
        "k": k, "n": n, "bound": (4 * (k1 / r) - 3) * n,
        "verdict": "pass" if k * r >= (4 * k1 - 3 * r) * n else "fail",
    }
