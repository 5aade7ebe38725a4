"""Left/right Cayley square complexes.

A complex over a group G with a left generator set A and a right generator
set B has vertex set G, left edges {g, ag}, right edges {g, gb}, and squares:
equivalence classes [a,g,b] of the four triples

    (a,g,b) ~ (a^-1, ag, b) ~ (a^-1, agb, b^-1) ~ (a, gb, b^-1).

Everything is stored once, as dense integer arrays: one table of per-label
permutations of the vertex set, an edge id for every (label, vertex) slot,
each edge's canonical slot as (edge_label, edge_root), and a square id for
every (a, g, b) slot.  The canonical representative of an edge or square is
the lexicographically least of its equivalent slot tuples, so ids are
deterministic and independent of discovery order.  A slot's key is its own
flat index, so an id is the rank of its class's least key among all least
keys, read off a running count with no sort.

Degenerate squares (classes of size 2, occurring exactly when condition
N2C fails) are retained, with class size 2 in square_class_size.

A complex is a function of (G, A, B), so its artifact ("cay2 v2") holds
only the manifest; loading rebuilds the complex and checks it against that.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, GeneratorSet, cyclic_group, psl2


@dataclass(frozen=True)
class ConditionReport:
    """TNC ('ga != bg for all g,a,b') and N2C ('a^2=1 implies g^-1ag not in B')."""

    tnc: bool
    n2c: bool


def _class_ids(canon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(class id per slot, sorted least keys) from each slot's least
    equivalent key canon, a key being the slot's flat index."""
    least = canon.ravel() == np.arange(canon.size, dtype=np.int64)
    rank = np.cumsum(least)
    rank -= 1
    return rank[canon], np.flatnonzero(least)


def canonical_ids(perms: np.ndarray,
                  inv_pos: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Ids of the edges {g, s_k g} of one generator set, s_k acting by perms[k].

    The slot (k, g) and its reverse (inverse position of k, s_k g) name one
    edge; its key is the least of the two slot keys k * n + g.  Returns
    (edge count, (k, n) edge id per slot, sorted canonical keys).
    """
    k, n = perms.shape
    canon = inv_pos[:, None] * n + perms
    np.minimum(canon, np.arange(k * n, dtype=np.int64).reshape(k, n), out=canon)
    ids, keys = _class_ids(canon)
    return len(keys), ids, keys


class CayleyComplex:
    """Vertices V = G, typed edges E_A | E_B, and square classes [a,g,b]."""

    def __init__(self, group: FiniteGroup, A: GeneratorSet, B: GeneratorSet):
        if A.group is not group or B.group is not group:
            raise ValueError("generator sets must belong to the given group")
        self.group = group
        self.A = A
        self.B = B
        self.nA = len(A)
        self.nB = len(B)
        self.n_vertices = group.order

        self.a_inv_pos = A.inverse_positions
        self.b_inv_pos = B.inverse_positions

        # label l in [0, nA) is left multiplication by A[l]; label nA + j is
        # right multiplication by B[j].  vert_image[l, g] = g^l, and
        # left_perms / right_perms are its two row blocks (views).
        self.n_labels = self.nA + self.nB
        self.vert_image = np.stack([group.left_perm(s) for s in A.indices]
                                   + [group.right_perm(s) for s in B.indices])
        self.left_perms = self.vert_image[:self.nA]
        self.right_perms = self.vert_image[self.nA:]
        self.label_inv = np.concatenate([self.a_inv_pos, self.b_inv_pos + self.nA])

        self._build_edges()
        self._build_squares()
        self.verify_counts()

    # -- construction -----------------------------------------------------

    def _build_edges(self):
        n = self.n_vertices
        self.n_left_edges, left_ids, left_keys = canonical_ids(
            self.left_perms, self.a_inv_pos)
        self.n_right_edges, right_ids, right_keys = canonical_ids(
            self.right_perms, self.b_inv_pos)
        self.n_edges = self.n_left_edges + self.n_right_edges
        # edge_at[l, g] = id of the edge <g; l>, right ids offset past left ids
        self.edge_at = np.concatenate([left_ids, right_ids + self.n_left_edges])
        # edge e is <edge_root[e]; edge_label[e]>, its canonical slot, so
        # edge_at[edge_label[e], edge_root[e]] = e
        self.edge_label = np.concatenate([left_keys // n, right_keys // n + self.nA])
        self.edge_root = np.concatenate([left_keys, right_keys]) % n

    def _build_squares(self):
        # canon = least key (i * n + g) * nB + j of the triples equivalent
        # to each slot, the slot's own first; the others fill one buffer in
        # turn, so no more than two slot-sized arrays are alive at once
        n, nA, nB = self.n_vertices, self.nA, self.nB
        shape = (nA, n, nB)
        canon = np.arange(nA * n * nB, dtype=np.int64).reshape(shape)
        key = np.empty(shape, dtype=np.int64)
        a_inv = (self.a_inv_pos * (n * nB))[:, None, None]
        gb = self.right_perms.T
        # (a^-1, ag, b), (a^-1, agb, b^-1), (a, gb, b^-1)
        np.add(a_inv + self.left_perms[:, :, None] * nB, np.arange(nB), out=key)
        np.minimum(canon, key, out=canon)
        np.take(gb, self.left_perms, axis=0, out=key, mode="clip")
        key *= nB
        key += a_inv + self.b_inv_pos
        np.minimum(canon, key, out=canon)
        np.add(np.arange(nA)[:, None, None] * (n * nB), gb * nB + self.b_inv_pos,
               out=key)
        np.minimum(canon, key, out=canon)
        del key
        self.square_id, keys = _class_ids(canon)
        del canon
        self.n_squares = len(keys)
        self.square_rep = np.stack(np.unravel_index(keys, shape), axis=1)
        self.square_class_size = np.bincount(self.square_id.ravel(),
                                             minlength=self.n_squares)

    # -- invariants --------------------------------------------------------

    def verify_counts(self):
        """Exact count identities; raised at build time if violated."""
        nG, nA, nB = self.n_vertices, self.nA, self.nB
        if self.n_edges != nG * (nA + nB) // 2:
            raise AssertionError("edge count violates |G|(|A|+|B|)/2")
        if self.n_left_edges * nB + self.n_right_edges * nA != nG * nA * nB:
            raise AssertionError("square-slot total violates |G||A||B|")
        sizes = self.square_class_size
        if not ((sizes == 2) | (sizes == 4)).all():
            raise AssertionError("square class sizes must be 2 or 4")
        if int(sizes.sum()) != nG * nA * nB:
            raise AssertionError("square classes do not partition the slot triples")
        if bool((sizes == 4).all()):
            if self.n_squares != nG * nA * nB // 4:
                raise AssertionError("square count violates |G||A||B|/4 under N2C")

    # -- conditions ---------------------------------------------------------

    def check_conditions(self) -> ConditionReport:
        # TNC fails iff some A element is conjugate into B, i.e. iff ag = gb
        # for some a, g, b; the other collision g = agb is a^-1 g = gb, and
        # a^-1 is in A, which is symmetric
        tnc = not (self.left_perms[:, :, None] == self.right_perms.T[None, :, :]).any()
        # a square class of size 2 is exactly an N2C violation
        n2c = bool((self.square_class_size == 4).all())
        return ConditionReport(tnc, n2c)

    # -- incidence and labelling --------------------------------------------

    def squares_of_vertex(self, g: int) -> np.ndarray:
        """The labelling map iota_g as an (|A|, |B|) grid of square ids."""
        return self.square_id[:, g, :]

    def vertices_of_squares(self, s: np.ndarray) -> np.ndarray:
        """The sorted distinct vertices whose views hold the squares s: the
        corners g, ag, gb and agb of each [a,g,b]."""
        a, g, b = self.square_rep[s].T
        ag = self.left_perms[a, g]
        return np.unique(np.concatenate([g, ag, self.right_perms[b, g],
                                         self.right_perms[b, ag]]))

    def edge_slot_table(self) -> np.ndarray:
        """(n_edges, r) square ids when |A| = |B| = r: row e is iota_e, the
        squares along edge e, as the edge-wise checks of a square code read
        them."""
        if self.nA != self.nB:
            raise ValueError("edge slot table requires |A| = |B|")
        nl = self.n_left_edges
        lt = self.square_id[self.edge_label[:nl], self.edge_root[:nl], :]
        rt = self.square_id[:, self.edge_root[nl:], self.edge_label[nl:] - self.nA].T
        return np.vstack([lt, rt])

    def canonical_square(self, a_pos: int, g: int, b_pos: int) -> int:
        """Square id of [a,g,b]; equal for all four equivalent triples."""
        return int(self.square_id[a_pos, g, b_pos])

    # -- manifest / serialization -------------------------------------------

    def manifest(self) -> dict:
        cond = self.check_conditions()
        return {
            "format": "cay2 v2",
            "group": self.group.manifest(),
            "A": list(self.A.indices),
            "B": list(self.B.indices),
            "counts": {
                "vertices": self.n_vertices,
                "edges": self.n_edges,
                "left_edges": self.n_left_edges,
                "right_edges": self.n_right_edges,
                "squares": self.n_squares,
                "square_slots": self.n_vertices * self.nA * self.nB,
            },
            "tnc": cond.tnc,
            "n2c": cond.n2c,
        }


def build_complex(group: FiniteGroup, A: GeneratorSet, B: GeneratorSet) -> CayleyComplex:
    """Build all incidence tables; count invariants are verified eagerly."""
    return CayleyComplex(group, A, B)


def serialize_complex(X: CayleyComplex) -> bytes:
    """cay2 v2 container: an .npz whose one member is the JSON manifest."""
    buf = io.BytesIO()
    np.savez(buf, manifest=np.frombuffer(
        json.dumps(X.manifest(), sort_keys=True).encode(), dtype=np.uint8))
    return buf.getvalue()


def _group_from_manifest(m: dict) -> FiniteGroup:
    if m["kind"] == "cyclic":
        return cyclic_group(m["parameters"]["n"])
    if m["kind"] == "psl2":
        return psl2(m["parameters"]["q"])
    raise ValueError(f"unknown group kind {m['kind']!r}")


def complex_manifest(data: bytes) -> dict:
    """The manifest of a cay2 v2 file, read without rebuilding the complex."""
    with np.load(io.BytesIO(data)) as z:
        manifest = json.loads(bytes(z["manifest"]).decode())
    if manifest.get("format") != "cay2 v2":
        raise ValueError("not a cay2 v2 file")
    return manifest


def deserialize_complex(data: bytes) -> CayleyComplex:
    """Rebuild the complex from a cay2 v2 manifest's group and generator
    sets.  The file is rejected, with the field named, if another manifest
    field (counts, tnc, n2c) differs from the rebuilt complex's."""
    manifest = complex_manifest(data)
    group = _group_from_manifest(manifest["group"])
    X = build_complex(group, GeneratorSet(group, tuple(manifest["A"])),
                      GeneratorSet(group, tuple(manifest["B"])))
    rebuilt = X.manifest()
    for field in sorted(rebuilt.keys() - {"format"}):
        if manifest.get(field) != rebuilt[field]:
            raise ValueError(f"cay2 manifest field {field!r} differs from "
                             f"the rebuilt complex's {rebuilt[field]!r}")
    return X
