"""Finite groups with indexed elements, and their Cayley graphs.

Two concrete groups are provided: cyclic groups (small-instance test bed)
and PSL2(F_q) for odd primes q, together with the Lubotzky-Phillips-Sarnak
generating sets that make their Cayley graphs Ramanujan.

Elements are dense integer indices 0..order-1 with index 0 the identity.
PSL2 multiplication is matrix arithmetic on canonical representatives, so
no quadratic multiplication table is ever materialized; per-generator
permutations of the whole group are computed vectorized instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv(self, i: int) -> int:
        raise NotImplementedError

    def left_perm(self, s: int) -> np.ndarray:
        """Permutation g -> s*g over all element indices."""
        raise NotImplementedError

    def right_perm(self, s: int) -> np.ndarray:
        """Permutation g -> g*s over all element indices."""
        raise NotImplementedError

    def parameters(self) -> dict:
        return {}

    def manifest(self) -> dict:
        return {"kind": self.kind, "parameters": self.parameters(), "order": self.order}


class CyclicGroup(FiniteGroup):
    """Z_n with index i = residue i."""

    kind = "cyclic"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"cyclic group needs n >= 2, got {n}")
        self.order = n

    def mul(self, i: int, j: int) -> int:
        return (i + j) % self.order

    def inv(self, i: int) -> int:
        return (-i) % self.order

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
    """

    kind = "psl2"

    def __init__(self, q: int):
        if not is_prime(q) or q == 2:
            raise ValueError(f"psl2 needs an odd prime, got {q}")
        self.q = q
        self.mats = self._enumerate(q)          # (order, 4) int64 canonical tuples
        self.order = len(self.mats)
        assert self.order == q * (q * q - 1) // 2
        self._keys = self._encode(self.mats)
        self._sorter = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._sorter]

    @staticmethod
    def _enumerate(q: int) -> np.ndarray:
        inv_table = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            inv_table[x] = pow(x, q - 2, q)
        # SL2: a != 0 -> d = (1 + b c) / a;  a = 0 -> c = -1/b, b != 0, d free
        a, b, c = np.meshgrid(np.arange(1, q), np.arange(q), np.arange(q), indexing="ij")
        a, b, c = a.ravel(), b.ravel(), c.ravel()
        d = (1 + b * c) % q * inv_table[a] % q
        part1 = np.stack([a, b, c, d], axis=1)
        b0, d0 = np.meshgrid(np.arange(1, q), np.arange(q), indexing="ij")
        b0, d0 = b0.ravel(), d0.ravel()
        c0 = (q - inv_table[b0]) % q
        part2 = np.stack([np.zeros_like(b0), b0, c0, d0], axis=1)
        sl2 = np.concatenate([part1, part2])
        canon = PSL2._canonicalize(sl2, q)
        keys = PSL2._encode_static(canon, q)
        uniq, idx = np.unique(keys, return_index=True)
        assert len(uniq) == len(sl2) // 2
        mats = canon[np.sort(idx)]
        # identity first, remainder in lexicographic order of canonical tuples
        order_keys = PSL2._encode_static(mats, q)
        mats = mats[np.argsort(order_keys)]
        id_row = np.array([1, 0, 0, 1], dtype=np.int64)
        id_pos = int(np.nonzero((mats == id_row).all(axis=1))[0][0])
        if id_pos != 0:
            mats = np.vstack([mats[id_pos:id_pos + 1], mats[:id_pos], mats[id_pos + 1:]])
        return mats

    @staticmethod
    def _canonicalize(mats: np.ndarray, q: int) -> np.ndarray:
        """Pick the +-M representative with first nonzero entry in {1..(q-1)/2}."""
        mats = mats % q
        first = mats[:, 0].copy()
        zero_a = first == 0
        first[zero_a] = mats[zero_a, 1]
        flip = first > (q - 1) // 2
        out = mats.copy()
        out[flip] = (-out[flip]) % q
        return out

    @staticmethod
    def _encode_static(mats: np.ndarray, q: int) -> np.ndarray:
        return ((mats[:, 0] * q + mats[:, 1]) * q + mats[:, 2]) * q + mats[:, 3]

    def _encode(self, mats: np.ndarray) -> np.ndarray:
        return self._encode_static(mats, self.q)

    def index_of(self, mat) -> int:
        """Index of a 2x2 matrix given as a length-4 sequence (row-major)."""
        canon = self._canonicalize(np.asarray(mat, dtype=np.int64)[None, :], self.q)
        key = self._encode(canon)[0]
        pos = int(np.searchsorted(self._sorted_keys, key))
        if pos >= self.order or self._sorted_keys[pos] != key:
            raise ValueError(f"matrix {list(mat)} is not in PSL2({self.q})")
        return int(self._sorter[pos])

    def _indices_of(self, mats: np.ndarray) -> np.ndarray:
        canon = self._canonicalize(mats, self.q)
        keys = self._encode(canon)
        pos = np.searchsorted(self._sorted_keys, keys)
        return self._sorter[pos]

    def mul(self, i: int, j: int) -> int:
        a = self.mats[i]
        b = self.mats[j]
        prod = [
            a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3],
        ]
        return self.index_of([int(x) % self.q for x in prod])

    def inv(self, i: int) -> int:
        a, b, c, d = (int(x) for x in self.mats[i])
        return self.index_of([d, (-b) % self.q, (-c) % self.q, a])

    def _perm(self, s: int, side: str) -> np.ndarray:
        g = self.mats
        m = self.mats[s]
        if side == "left":       # s * g
            prod = np.stack([
                m[0] * g[:, 0] + m[1] * g[:, 2], m[0] * g[:, 1] + m[1] * g[:, 3],
                m[2] * g[:, 0] + m[3] * g[:, 2], m[2] * g[:, 1] + m[3] * g[:, 3],
            ], axis=1)
        else:                    # g * s
            prod = np.stack([
                g[:, 0] * m[0] + g[:, 1] * m[2], g[:, 0] * m[1] + g[:, 1] * m[3],
                g[:, 2] * m[0] + g[:, 3] * m[2], g[:, 2] * m[1] + g[:, 3] * m[3],
            ], axis=1)
        return self._indices_of(prod % self.q)

    def left_perm(self, s: int) -> np.ndarray:
        return self._perm(s, "left")

    def right_perm(self, s: int) -> np.ndarray:
        return self._perm(s, "right")

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
        if len(set(idx)) != len(idx):
            raise ValueError("generator set contains duplicates")
        if 0 in idx:
            raise ValueError("generator set must not contain the identity")
        inv = {self.group.inv(i) for i in idx}
        if inv != set(idx):
            raise ValueError("generator set is not symmetric (closed under inversion)")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def inverse_positions(self) -> np.ndarray:
        """inverse_positions[k] = position within the set of indices[k]^-1."""
        lookup = {g: p for p, g in enumerate(self.indices)}
        return np.array([lookup[self.group.inv(g)] for g in self.indices], dtype=np.int64)

    def generates_group(self) -> bool:
        """The Cayley graph is connected: the orbit of the identity is G."""
        return cayley_graph(self.group, self).is_connected()


@dataclass
class Graph:
    """Undirected (multi)graph given by symmetric arcs.

    ``arcs`` holds one directed arc per (vertex, generator) application, so
    parallel edges and fixed-point loops keep explicit multiplicity and the
    normalized adjacency operator is exactly (1/degree) * arc-count matrix.
    """

    n_vertices: int
    arcs: np.ndarray                       # (m, 2) int64, closed under reversal
    name: str = ""

    @property
    def degree(self) -> int:
        if self.n_vertices == 0:
            return 0
        d = len(self.arcs) / self.n_vertices
        if d != int(d):
            raise ValueError("graph is not regular")
        return int(d)

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n_vertices, self.n_vertices))
        np.add.at(A, (self.arcs[:, 0], self.arcs[:, 1]), 1.0)
        return A

    def normalized_adjacency(self) -> np.ndarray:
        return self.adjacency() / self.degree

    def matvec(self, f: np.ndarray) -> np.ndarray:
        """Apply the normalized adjacency operator without materializing it."""
        out = np.bincount(self.arcs[:, 0], weights=f[self.arcs[:, 1]],
                          minlength=self.n_vertices)
        return out / self.degree

    def is_connected(self) -> bool:
        """Breadth-first search from vertex 0, one CSR gather per level."""
        if self.n_vertices == 0:
            return True
        order_ = np.argsort(self.arcs[:, 0], kind="stable")
        dst_sorted = self.arcs[order_, 1]
        starts = np.searchsorted(self.arcs[order_, 0], np.arange(self.n_vertices + 1))
        seen = np.zeros(self.n_vertices, dtype=bool)
        seen[0] = True
        frontier = np.array([0])
        while frontier.size:
            lo, count = starts[frontier], starts[frontier + 1] - starts[frontier]
            # positions lo[v] .. lo[v] + count[v] - 1 of every frontier vertex v
            pos = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
            nbrs = dst_sorted[pos]
            frontier = np.unique(nbrs[~seen[nbrs]])
            seen[frontier] = True
        return bool(seen.all())

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Canonical undirected edge list (u <= v), with multiplicity."""
        pairs = []
        u, v = self.arcs[:, 0], self.arcs[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        loops = lo == hi
        nonloop = np.stack([lo[~loops], hi[~loops]], axis=1)
        # every non-loop arc appears mirrored; keep one per pair
        keys, counts = np.unique(nonloop[:, 0] * self.n_vertices + nonloop[:, 1],
                                 return_counts=True)
        for k, c in zip(keys, counts):
            assert c % 2 == 0
            pairs.extend([(int(k) // self.n_vertices, int(k) % self.n_vertices)] * (c // 2))
        lkeys, lcounts = np.unique(lo[loops], return_counts=True)
        for k, c in zip(lkeys, lcounts):
            pairs.extend([(int(k), int(k))] * int(c))
        return sorted(pairs)


def cyclic_group(n: int) -> CyclicGroup:
    """Z_n; raises for n < 2."""
    return CyclicGroup(n)


def psl2(q: int) -> PSL2:
    """PSL2(F_q) of order q(q^2-1)/2; raises unless q is an odd prime."""
    return PSL2(q)


def lps_generators(p: int, q: int) -> GeneratorSet:
    """The p+1 Lubotzky-Phillips-Sarnak generators of PSL2(F_q).

    Requires primes p ≡ 1 (mod 4) and q ≡ 1 (mod 4p) with p < q.  Each
    integer quadruple (a0, a1, a2, a3) with a0^2+a1^2+a2^2+a3^2 = p, a0 > 0
    odd and a1, a2, a3 even is mapped to
    [[a0 + i*a1, a2 + i*a3], [-a2 + i*a3, a0 - i*a1]] mod q, i^2 = -1 (q),
    scaled into PSL2 by an inverse square root of its determinant p.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"p must be a prime congruent to 1 mod 4, got {p}")
    if not is_prime(q) or q % (4 * p) != 1:
        raise ValueError(f"q must be a prime congruent to 1 mod 4p={4 * p}, got {q}")
    if p >= q:
        raise ValueError(f"need p < q, got p={p}, q={q}")
    group = psl2(q)
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
    gens = GeneratorSet(group, tuple(indices))
    if not gens.generates_group():
        raise AssertionError("LPS generators fail to generate PSL2")
    return gens


def symmetric_subset(S: GeneratorSet, r: int) -> GeneratorSet:
    """Deterministic inverse-closed subset of size r.

    Scans elements in ascending index order, keeping self-inverse elements
    (cost 1) and inverse pairs (cost 2) while they fit; raises if no
    inverse-closed subset of exactly the requested size is reachable.
    """
    if not 0 < r <= len(S):
        raise ValueError(f"subset size {r} out of range 1..{len(S)}")
    chosen: list[int] = []
    taken = set()
    for g in sorted(S.indices):
        if g in taken:
            continue
        ginv = S.group.inv(g)
        cost = 1 if ginv == g else 2
        if len(chosen) + cost <= r:
            taken.add(g)
            chosen.append(g)
            if ginv != g:
                taken.add(ginv)
                chosen.append(ginv)
        if len(chosen) == r:
            break
    if len(chosen) != r:
        raise ValueError(f"no inverse-closed subset of size {r} exists in {S.indices}")
    return GeneratorSet(S.group, tuple(sorted(chosen)), side=S.side)


def cayley_graph(G: FiniteGroup, S: GeneratorSet, side: str = "left") -> Graph:
    """Cayley graph: edges g ~ sg (left) or g ~ gs (right) for s in S."""
    if S.group is not G:
        raise ValueError("generator set belongs to a different group")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = G.order
    verts = np.arange(n, dtype=np.int64)
    blocks = []
    for s in S.indices:
        perm = G.left_perm(s) if side == "left" else G.right_perm(s)
        blocks.append(np.stack([verts, perm], axis=1))
    arcs = np.concatenate(blocks)
    return Graph(n, arcs, name=f"cayley-{side}-{G.kind}{G.parameters()}")

