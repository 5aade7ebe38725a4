"""Finite groups with indexed elements, and their Cayley graphs.

Two concrete groups are provided: cyclic groups (small-instance test bed)
and PSL2(F_q) for odd primes q, together with the Lubotzky-Phillips-Sarnak
generating sets that make their Cayley graphs Ramanujan.  Cayley graphs
are regular: a `Graph` keeps its arcs and one cached neighbour table.

Elements are dense integer indices 0..order-1 with index 0 the identity.
PSL2 multiplication is matrix arithmetic followed by one gather in a table
of q^3 int32 slots that maps a matrix and its negation to their element, so
no quadratic multiplication table is ever materialized; per-generator
permutations of the whole group are computed vectorized instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def sqrt_mod(a: int, q: int) -> int:
    """Least square root of a modulo the (small) odd prime q; raises if none."""
    a %= q
    for x in range((q + 1) // 2 + 1):
        if x * x % q == a:
            return x
    raise ValueError(f"{a} is not a quadratic residue mod {q}")


class FiniteGroup:
    """Multiplication structure with dense element indexing (0 = identity)."""

    order: int
    kind: str
    inverse: np.ndarray         # (order,) int64: inverse[g] is the index of g^-1
    block_generator: int        # u: the dense solver splits spectra along <u>

    def left_perm(self, s: int) -> np.ndarray:
        """Permutation g -> s*g over all element indices."""
        raise NotImplementedError

    def right_perm(self, s: int) -> np.ndarray:
        """Permutation g -> g*s over all element indices."""
        raise NotImplementedError

    def block_perm(self, side: str) -> np.ndarray:
        """Translation by u on the other side: it commutes with a side Cayley graph."""
        return (self.right_perm if side == "left" else self.left_perm)(self.block_generator)

    def manifest(self) -> dict:
        return {"kind": self.kind, "parameters": self.parameters(), "order": self.order}


class CyclicGroup(FiniteGroup):
    """Z_n with index i = residue i."""

    kind = "cyclic"
    block_generator = 1

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"cyclic group needs n >= 2, got {n}")
        self.order = n
        self.inverse = -np.arange(n, dtype=np.int64) % n

    def left_perm(self, s: int) -> np.ndarray:
        return (np.arange(self.order, dtype=np.int64) + s) % self.order

    right_perm = left_perm

    def parameters(self) -> dict:
        return {"n": self.order}


class PSL2(FiniteGroup):
    """PSL2(F_q) for an odd prime q: 2x2 determinant-1 matrices modulo +-I.

    The canonical representative of {M, -M} is the one whose first nonzero
    entry in row-major order lies in {1, ..., (q-1)/2}.  Elements are sorted
    by their canonical 4-tuple, except the identity is moved to index 0.
    A determinant-1 matrix [[a, b], [c, d]] is fixed by (a, b, c) when
    a != 0 and by (a, b, d) when a = 0, so one int32 table of q^3 slots,
    keyed (a q + b) q + (c if a else d), maps both M and -M to their index.
    """

    kind = "psl2"

    def __init__(self, q: int):
        if not is_prime(q) or q == 2:
            raise ValueError(f"psl2 needs an odd prime, got {q}")
        self.q = q
        self.mats = self._enumerate(q)          # (order, 4) int64 canonical tuples
        self.order = len(self.mats)
        assert self.order == q * (q * q - 1) // 2
        self._table = np.full(q ** 3, -1, dtype=np.int32)   # a = b = 0 slots stay -1
        for sign in (1, -1):
            self._table[self._slot(*(sign * self.mats.T))] = np.arange(self.order)
        a, b, c, d = self.mats.T                # [[a, b], [c, d]]^-1 = [[d, -b], [-c, a]]
        self.inverse = self._table[self._slot(d, -b, -c, a)].astype(np.int64)
        self.block_generator = self.index_of([1, 1, 0, 1])     # of order q

    @staticmethod
    def _enumerate(q: int) -> np.ndarray:
        """Canonical tuples in lexicographic order, the identity moved first."""
        inv_table = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)
        half = np.arange(1, (q + 1) // 2)
        # a = 0: b in 1..(q-1)/2, c = -1/b, d free
        b0, d0 = (x.ravel() for x in np.meshgrid(half, np.arange(q), indexing="ij"))
        zero_a = np.stack([np.zeros_like(b0), b0, q - inv_table[b0], d0], axis=1)
        # a in 1..(q-1)/2: b, c free, d = (1 + b c) / a; the first row is the identity
        a, b, c = (x.ravel() for x in np.meshgrid(half, np.arange(q), np.arange(q),
                                                   indexing="ij"))
        nonzero_a = np.stack([a, b, c, (1 + b * c) % q * inv_table[a] % q], axis=1)
        return np.concatenate([nonzero_a[:1], zero_a, nonzero_a[1:]])

    def _slot(self, a, b, c, d):
        """Table slot of [[a, b], [c, d]] (entries or columns of entries), mod q."""
        q = self.q
        a = a % q
        return (a * q + b % q) * q + np.where(a != 0, c, d) % q

    def _product(self, x, y):
        """Indices of x y for row-major 4-tuples x, y of entries or columns."""
        a, b, c, d = x
        e, f, g, h = y
        return self._table[self._slot(a * e + b * g, a * f + b * h,
                                      c * e + d * g, c * f + d * h)]

    def index_of(self, mat) -> int:
        """Index of a 2x2 matrix given as a length-4 sequence (row-major)."""
        a, b, c, d = (int(x) % self.q for x in mat)
        if (a * d - b * c) % self.q != 1:
            raise ValueError(f"matrix {list(mat)} is not in PSL2({self.q})")
        return int(self._table[self._slot(a, b, c, d)])

    # permutations stay int64: complexes multiplies them into slot keys
    def left_perm(self, s: int) -> np.ndarray:
        return self._product(self.mats[s], self.mats.T).astype(np.int64)

    def right_perm(self, s: int) -> np.ndarray:
        return self._product(self.mats.T, self.mats[s]).astype(np.int64)

    def parameters(self) -> dict:
        return {"q": self.q}


@dataclass(frozen=True)
class GeneratorSet:
    """A symmetric, identity-free, duplicate-free set of group elements."""

    group: FiniteGroup
    indices: tuple[int, ...]
    side: str = "unspecified"

    def __post_init__(self):
        idx = self.indices
        for i in idx:
            if not 0 <= i < self.group.order:
                raise ValueError(f"generator index {i} lies outside [0, {self.group.order})")
        if len(set(idx)) != len(idx):
            raise ValueError("generator set contains duplicates")
        if 0 in idx:
            raise ValueError("generator set must not contain the identity")
        if (self.inverse_positions < 0).any():
            raise ValueError("generator set is not symmetric (closed under inversion)")

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def inverse_positions(self) -> np.ndarray:
        """inverse_positions[k] = position within the set of indices[k]^-1,
        or -1 if the set does not hold it."""
        position = np.full(self.group.order, -1, dtype=np.int64)
        position[list(self.indices)] = np.arange(len(self))
        return position[self.group.inverse[list(self.indices)]]


@dataclass
class Graph:
    """Regular undirected (multi)graph given by symmetric arcs.

    ``arcs`` holds one directed arc per (vertex, generator) application, so
    parallel edges and fixed-point loops keep explicit multiplicity and the
    normalized adjacency operator is exactly (1/degree) * arc-count matrix.
    The arcs are sorted by source once, on first use, into the cached
    neighbour ``table``; the arcs must not change after that.
    """

    n_vertices: int
    arcs: np.ndarray                       # (m, 2) int64, closed under reversal
    name: str = ""
    commuting: np.ndarray | None = None    # P, P[table] = table[:, P]; None: identity

    @staticmethod
    def from_permutations(perms: np.ndarray, commuting: np.ndarray, name: str = "") -> Graph:
        """Arcs v -> perms[k, v] for every row k, row by row: row k of the
        neighbour table is perms[k]."""
        d, n = perms.shape
        verts = np.tile(np.arange(n, dtype=np.int64), d)
        return Graph(n, np.stack([verts, perms.ravel()], axis=1), name, commuting)

    @cached_property
    def table(self) -> np.ndarray:
        """(degree, n): row k holds every vertex's k-th arc destination, in
        arc order; raises unless the graph has vertices, each with degree arcs."""
        n, src = self.n_vertices, self.arcs[:, 0]
        count = np.bincount(src, minlength=n)
        if n == 0 or (count != count[0]).any():
            raise ValueError("graph has no vertices" if n == 0 else "graph is not regular")
        dst = self.arcs[np.argsort(src, kind="stable"), 1]
        return np.ascontiguousarray(dst.reshape(n, -1).T)

    @property
    def degree(self) -> int:
        return len(self.table)

    def matvec(self, f: np.ndarray) -> np.ndarray:
        """Apply the normalized adjacency operator without materializing it.

        Each vertex sums its neighbours' values from 0.0 in arc order, one
        table row at a time, so the result is bit for bit that of
        np.bincount over the arcs.
        """
        out = np.zeros(self.n_vertices)
        for row in self.table:
            out += f[row]
        return out / self.degree

    def is_connected(self) -> bool:
        """Breadth-first search from vertex 0, one table gather per level."""
        table, frontier = self.table, np.array([0])
        seen = np.arange(self.n_vertices) == 0
        while frontier.size:
            reached = np.zeros(self.n_vertices, dtype=bool)
            reached[table[:, frontier]] = True
            frontier = np.flatnonzero(reached & ~seen)
            seen[frontier] = True
        return bool(seen.all())


def cyclic_group(n: int) -> CyclicGroup:
    """Z_n; raises for n < 2."""
    return CyclicGroup(n)


def psl2(q: int) -> PSL2:
    """PSL2(F_q) of order q(q^2-1)/2; raises unless q is an odd prime."""
    return PSL2(q)


def lps_generators(group: PSL2, p: int) -> GeneratorSet:
    """The p+1 Lubotzky-Phillips-Sarnak generators of group = PSL2(F_q).

    Requires primes p ≡ 1 (mod 4) and q ≡ 1 (mod 4) with p < q and p a
    square mod q (Legendre symbol (p/q) = 1), so that i = √-1 and √p exist
    mod q and the generators land in PSL2; q ≡ 1 (mod 4p) implies this by
    quadratic reciprocity.  When (p/q) = -1 the LPS graph lives on
    PGL2(F_q), which is refused.  Each integer quadruple (a0, a1, a2, a3)
    with a0^2+a1^2+a2^2+a3^2 = p, a0 > 0 odd and a1, a2, a3 even is mapped to
    [[a0 + i*a1, a2 + i*a3], [-a2 + i*a3, a0 - i*a1]] mod q, i^2 = -1 (q),
    scaled into PSL2 by an inverse square root of its determinant p.
    For (p/q) = 1 the set generates PSL2(F_q) (Lubotzky-Phillips-Sarnak
    1988), so the group is not searched; build refuses a disconnected
    Cayley graph, such as a subset's, when it solves the spectrum.
    """
    q = group.q
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"p must be a prime congruent to 1 mod 4, got {p}")
    if q % 4 != 1:
        raise ValueError(f"q must be a prime congruent to 1 mod 4, got {q}")
    if p >= q:
        raise ValueError(f"need p < q, got p={p}, q={q}")
    if pow(p, (q - 1) // 2, q) != 1:
        raise ValueError(f"p={p} must be a square mod q={q}: Legendre symbol (p/q) = -1")
    i_unit = sqrt_mod(q - 1, q)
    sqrt_p_inv = pow(sqrt_mod(p, q), q - 2, q)
    bound = math.isqrt(p)
    even_lo = -2 * (bound // 2)
    quads = []
    for a0 in range(1, bound + 1, 2):
        for a1 in range(even_lo, bound + 1, 2):
            for a2 in range(even_lo, bound + 1, 2):
                rest = p - a0 * a0 - a1 * a1 - a2 * a2
                if rest < 0:
                    continue
                a3 = math.isqrt(rest)
                if a3 * a3 == rest and a3 % 2 == 0:
                    for s3 in ({a3, -a3} if a3 else {0}):
                        quads.append((a0, a1, a2, s3))
    indices = []
    for a0, a1, a2, a3 in quads:
        mat = [
            (a0 + i_unit * a1) * sqrt_p_inv % q,
            (a2 + i_unit * a3) * sqrt_p_inv % q,
            (-a2 + i_unit * a3) * sqrt_p_inv % q,
            (a0 - i_unit * a1) * sqrt_p_inv % q,
        ]
        indices.append(group.index_of(mat))
    indices = sorted(set(indices))
    if len(indices) != p + 1:
        raise AssertionError(
            f"LPS recipe produced {len(indices)} distinct generators, expected {p + 1}")
    return GeneratorSet(group, tuple(indices))


def symmetric_subset(S: GeneratorSet, r: int) -> GeneratorSet:
    """Deterministic inverse-closed subset of size r.

    Scans elements in ascending index order, keeping self-inverse elements
    (cost 1) and inverse pairs (cost 2) while they fit; raises if no
    inverse-closed subset of exactly the requested size is reachable.
    """
    if not 0 < r <= len(S):
        raise ValueError(f"subset size {r} out of range 1..{len(S)}")
    chosen: set[int] = set()
    for g in sorted(S.indices):
        pair = {g, int(S.group.inverse[g])}        # {g} when g is self-inverse
        if not pair & chosen and len(chosen) + len(pair) <= r:
            chosen |= pair
    if len(chosen) != r:
        raise ValueError(f"no inverse-closed subset of size {r} exists in {S.indices}")
    return GeneratorSet(S.group, tuple(sorted(chosen)), side=S.side)


def cayley_graph(G: FiniteGroup, S: GeneratorSet, side: str = "left") -> Graph:
    """Cayley graph: edges g ~ sg (left) or g ~ gs (right) for s in S."""
    if S.group is not G:
        raise ValueError("generator set belongs to a different group")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    perm = G.left_perm if side == "left" else G.right_perm
    return Graph.from_permutations(np.stack([perm(s) for s in S.indices]), G.block_perm(side),
                                   name=f"cayley-{side}-{G.kind}{G.parameters()}")

