"""Walk operators on Cayley complexes and their spectra.

Every operator of the soundness argument is a fixed-degree average over a
neighbour table: the vertex walk T, the edge walk M = Dt o T o D (D
averages the edges at a vertex, Dt the two endpoints of an edge), the
parallel walk Mpar, and the mixtures M_gamma = gamma*M + (1-gamma)*Mpar.
`WalkOperator` holds each as exact rational weights over int64 neighbour
tables, so its symmetry and Markov checks are exact, with no tolerance and
no sampling.  The dense matrix is built on demand up to DENSE_MAX_DIM rows.

Second eigenvalues of Cayley graphs come from a dense eigensolver up to
DENSE_MAX_DIM vertices and from Lanczos above it.  The dense solve is one
batched eigvalsh of `character_blocks`: translation by u = group.block_generator
on the other side commutes with a Cayley graph, so its spectrum splits into one
block of n/|<u>| rows per character of <u>.  `complex_spectrum` builds each
side's graph from the complex's `left_perms` and `right_perms` and solves only
the left one when an exact check shows that g -> g^-1 maps it onto the right
one.  The blocks and each Lanczos step read the graph's cached neighbour
table, `Graph.table`, whose row k holds every vertex's k-th neighbour.
The expansion-implication checker decides, in exact arithmetic, what the
expansion of an operator implies for a set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .complexes import LEFT, CayleyComplex
from .groups import Graph

DENSE_MAX_DIM = 4000        # largest dense matrix or dense eigensolve, in rows
LANCZOS_FIRST_ROWS = 64     # Krylov rows allocated before the first doubling
LANCZOS_MAX_STEPS = 100000  # Lanczos iterations before ConvergenceError
LANCZOS_SEED = 0xC0DE       # seed of the random start vector


class OperatorCheckError(ValueError):
    """An operator failed a required symmetry/Markov structural check."""


class WalkOperator:
    """f -> sum_t w_t * mean_k f[table_t[:, k]], a weighted mix of walks.

    Each term is an exact weight (a `Fraction`) and a (dim, d) int64 table
    whose row i lists the d neighbours of i with multiplicity, so the
    term's matrix entry (i, j) is (copies of j in row i) / d.
    """

    def __init__(self, terms):
        self.terms = [(Fraction(w), np.asarray(table, dtype=np.int64))
                      for w, table in terms]
        self.dim = len(self.terms[0][1])
        if any(t.ndim != 2 or len(t) != self.dim for _, t in self.terms):
            raise ValueError("neighbour tables must share the shape (dim, d)")

    def matvec(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        return sum(float(w) * f[table].mean(axis=1) for w, table in self.terms)

    def _pair_codes(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Codes i*dim + j and j*dim + i of every (row i, entry j) pair."""
        rows = np.arange(self.dim)[:, None]
        return (rows * self.dim + table).ravel(), (table * self.dim + rows).ravel()

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim matrix; refused above DENSE_MAX_DIM rows."""
        if self.dim > DENSE_MAX_DIM:
            raise ValueError(
                f"dense matrix capped at {DENSE_MAX_DIM} rows, operator has {self.dim}")
        out = np.zeros((self.dim, self.dim))
        for w, table in self.terms:
            counts = np.bincount(self._pair_codes(table)[0], minlength=self.dim ** 2)
            out += counts.reshape(self.dim, self.dim) * (float(w) / table.shape[1])
        return out

    def check(self, tol: float | None = None) -> None:
        """Raise OperatorCheckError unless the operator is symmetric Markov.

        Exact: every index lies in [0, dim), the weights are >= 0 and sum to
        exactly 1, and every table equals its own transpose as a multiset of
        (row, entry) pairs.  Each term is then a symmetric doubly stochastic
        matrix, and so is their convex combination.  ``tol`` is unused; it is
        accepted for callers written against tolerance-based checks.
        """
        for w, table in self.terms:
            if table.min() < 0 or table.max() >= self.dim:
                raise OperatorCheckError(f"neighbour index outside [0, {self.dim})")
            if w < 0:
                raise OperatorCheckError(f"negative weight {w}")
            fwd, rev = self._pair_codes(table)
            if not np.array_equal(np.sort(fwd), np.sort(rev)):
                raise OperatorCheckError("neighbour table is not its own transpose")
        total = sum(w for w, _ in self.terms)
        if total != 1:
            raise OperatorCheckError(f"weights sum to {total}, not 1")


def _require_square_regular(X: CayleyComplex) -> int:
    if X.nA != X.nB:
        raise ValueError(f"operators need |A| = |B|; got {X.nA} != {X.nB}")
    return X.nA


def build_T(X: CayleyComplex) -> WalkOperator:
    """Vertex operator Tf(g) = (1/2r) sum_l f(g^l)."""
    _require_square_regular(X)
    return WalkOperator([(1, X.vert_image.T)])


def build_M(X: CayleyComplex) -> WalkOperator:
    """The edge walk M = Dt o T o D: symmetric, Markov, lambda-expanding.

    Dt averages the two endpoints of an edge, T the 2r neighbours of a
    vertex and D the 2r edges at a vertex, so row e lists the 8r^2 edges
    that the count n2_edge = 8r^2 * M 1_R counts.
    """
    _require_square_regular(X)
    lbl, g = X.edge_rep_slots()
    endpoints = np.stack([g, X.vert_image[lbl, g]], axis=1)      # (m, 2)
    table = X.edge_at.T[X.vert_image.T[endpoints]]               # (m, 2, 2r, 2r)
    return WalkOperator([(1, table.reshape(X.n_edges, -1))])


def parallel_neighbor_table(X: CayleyComplex) -> np.ndarray:
    """(n_edges, r) ids: <g;l> moved along every opposite-type label."""
    r = _require_square_regular(X)
    lbl, g = X.edge_rep_slots()
    out = np.empty((X.n_edges, r), dtype=np.int64)
    left_mask = X.label_type[lbl] == LEFT
    for k in range(r):
        opp = np.where(left_mask, X.nA + k, k)       # opposite-type label
        moved = X.vert_image[opp, g]
        out[:, k] = X.edge_at[lbl, moved]
    return out


def build_Mpar(X: CayleyComplex) -> WalkOperator:
    """Parallel walk: Mpar f(<g;l>) = (1/r) sum over opposite-type labels."""
    return WalkOperator([(1, parallel_neighbor_table(X))])


def edge_label_classes(X: CayleyComplex) -> list[dict]:
    """Partition of edges into E_l classes ({l, l^-1} label orbits).

    Each entry carries the class labels, their type, whether the label is
    self-inverse, and the edge ids.  A class is listed at its least label.
    """
    classes = []
    for lbl in range(X.n_labels):
        inv = int(X.label_inv[lbl])
        if inv < lbl:
            continue
        ids = np.unique(X.edge_at[lbl])
        classes.append({
            "labels": (lbl, inv) if inv != lbl else (lbl,),
            "type": int(X.label_type[lbl]),
            "self_inverse": inv == lbl,
            "edge_ids": ids,
        })
    return classes


def build_Mgamma(X: CayleyComplex, gamma: float) -> WalkOperator:
    """M_gamma = gamma*M + (1-gamma)*Mpar for 0 < gamma < 1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    gamma = Fraction(gamma)
    return WalkOperator([(gamma, build_M(X).terms[0][1]),
                         (1 - gamma, parallel_neighbor_table(X))])


# ---------------------------------------------------------------------------
# Second eigenvalue
# ---------------------------------------------------------------------------


@dataclass
class SpectralReport:
    lam: float                 # second-largest eigenvalue of the normalized walk
    method: str                # dense | iterative
    residual: float
    iterations: int
    degree: int
    n_vertices: int
    lambda_min: float          # most negative eigenvalue (diagnostic)


class ConvergenceError(RuntimeError):
    pass


def character_blocks(graph: Graph) -> np.ndarray:
    """The normalized adjacency operator on the characters of <P>, P =
    graph.commuting or the identity: the (c//2 + 1, m, m) complex stack of
    M_j[i, k] = (1/d) sum of w^(j e), w = e^(2 pi i / c), over the rows s with
    perms[s][x_i] = P^e(x_k), x_0 < ... < x_(m-1) least in P's m cycles of
    length c.  M_(c-j) is M_j conjugated, so the spectrum is the stack's with
    j = 0 and c/2 once, every other j twice.  AssertionError unless P
    commutes with every row and m c = n."""
    perms, n, ident = graph.table, graph.n_vertices, np.arange(graph.n_vertices)
    P = ident if graph.commuting is None else graph.commuting
    lead, steps, walk, c = ident.copy(), np.zeros(n, dtype=np.int64), P, 1
    while c <= n and not np.array_equal(walk, ident):      # lead[g] = P^steps[g](g)
        lower = walk < lead
        lead[lower], steps[lower] = walk[lower], c
        walk, c = P[walk], c + 1
    reps, coset = np.unique(lead, return_inverse=True)     # g = P^-steps[g](reps[coset[g]])
    m = len(reps)
    if m * c != n or not np.array_equal(perms[:, P], P[perms]):
        raise AssertionError(f"no free commuting permutation: {m} cycles of length {c}")
    h, j = perms[:, reps], np.arange(c // 2 + 1)[:, None]   # h[s, i] = perms[s][x_i]
    # exponents in [-(c//2), c - c//2), so that w^-t is the exact conjugate of w^t
    phase = np.exp(2j * np.pi / c * ((c // 2 - j * steps[h].ravel()) % c - c // 2))
    slots = ((np.arange(m) * m + coset[h]).ravel() + j * m * m).ravel()
    blocks = (np.bincount(slots, phase.real.ravel(), j.size * m * m)
              + 1j * np.bincount(slots, phase.imag.ravel(), j.size * m * m))
    return blocks.reshape(-1, m, m) / graph.degree


def _dense_second(graph: Graph) -> SpectralReport:
    vals = np.sort(np.linalg.eigvalsh(character_blocks(graph)), axis=None)
    return SpectralReport(lam=float(vals[-2]), method="dense", residual=0.0, iterations=0,
                          degree=graph.degree, n_vertices=graph.n_vertices,
                          lambda_min=float(vals[0]))


def _lanczos_second(graph: Graph, tol: float) -> SpectralReport:
    n = graph.n_vertices
    rng = np.random.default_rng(LANCZOS_SEED)
    ones = np.ones(n) / np.sqrt(n)

    def deflate(w):
        return w - (ones @ w) * ones

    max_steps = min(LANCZOS_MAX_STEPS, n - 1)
    # Krylov rows 0..k of basis[:k + 1]; the buffer doubles when full and is
    # never pre-touched, so memory follows the iterations actually taken
    basis = np.empty((min(max_steps + 1, LANCZOS_FIRST_ROWS), n))
    basis[0] = deflate(rng.standard_normal(n))
    basis[0] /= np.linalg.norm(basis[0])
    alphas: list[float] = []
    betas: list[float] = []
    theta_prev = None
    stable = 0
    iterations = 0
    for k in range(max_steps):
        iterations = k + 1
        w = deflate(graph.matvec(basis[k]))
        alpha = float(basis[k] @ w)
        alphas.append(alpha)
        w = w - alpha * basis[k]
        if k > 0:
            w = w - betas[-1] * basis[k - 1]
        # explicit re-orthogonalization against the whole basis
        Q = basis[:k + 1]
        w = w - Q.T @ (Q @ w)
        tri = np.diag(alphas)
        if betas:
            off = np.array(betas)
            tri += np.diag(off, 1) + np.diag(off, -1)
        evals = np.linalg.eigvalsh(tri)
        theta = float(evals[-1])
        if theta_prev is not None and abs(theta - theta_prev) < tol:
            stable += 1
            if stable >= 3:
                break
        else:
            stable = 0
        theta_prev = theta
        beta = float(np.linalg.norm(w))
        if beta < 1e-14:
            break          # Krylov space exhausted: theta is exact
        betas.append(beta)
        if k + 1 == len(basis):
            grown = np.empty((min(2 * len(basis), max_steps + 1), n))
            grown[:k + 1] = basis
            basis = grown
        basis[k + 1] = w / beta
    else:
        raise ConvergenceError(
            f"Lanczos did not converge within {max_steps} iterations (tol={tol:g})")

    evals, evecs = np.linalg.eigh(tri)         # tri is the last step's matrix
    theta = float(evals[-1])
    y = basis[: len(alphas)].T @ evecs[:, -1]
    y /= np.linalg.norm(y)
    residual = float(np.linalg.norm(deflate(graph.matvec(y)) - theta * y))
    return SpectralReport(
        lam=theta, method="iterative", residual=residual, iterations=iterations,
        degree=graph.degree, n_vertices=n, lambda_min=float(evals[0]))


def second_eigenvalue(graph: Graph, method: str = "auto",
                      tol: float = 1e-10) -> SpectralReport:
    """Second-largest eigenvalue of the normalized adjacency operator.

    One-sided: the largest eigenvalue on the complement of the constant
    vector, which may be negative (e.g. complete graphs).  Disconnected
    graphs are rejected since their second eigenvalue is trivially 1.
    """
    if not graph.is_connected():
        raise ValueError("graph is disconnected: second eigenvalue is trivially 1")
    if method == "auto":
        method = "dense" if graph.n_vertices <= DENSE_MAX_DIM else "iterative"
    if method == "dense":
        if graph.n_vertices > DENSE_MAX_DIM:
            raise ValueError(f"dense method capped at {DENSE_MAX_DIM} vertices")
        return _dense_second(graph)
    if method == "iterative":
        return _lanczos_second(graph, tol)
    raise ValueError(f"unknown method {method!r}")


def complex_spectrum(X: CayleyComplex, method: str = "auto") -> dict:
    """{"lambda": max of the two Cayley graph eigenvalues, "cayley": {"left":
    ..., "right": ...}}, each side's SpectralReport as a dict of its fields,
    lam and n_vertices renamed lambda and nvertices.  If iota: g -> g^-1 is
    a permutation with iota(a_k g) = iota(g) b_j, j = a_inv_pos[k], for every
    k and g (as whenever B = A), checked exactly on the complex's tables,
    then iota maps the left Cayley graph onto the right one; the two spectra
    are equal, so only the left side is solved and the right record is its copy."""
    iota = X.group.inverse
    mirrored = (X.nA == X.nB and np.array_equal(np.sort(iota), np.arange(X.n_vertices))
                and np.array_equal(iota[X.left_perms], X.right_perms[X.a_inv_pos][:, iota]))
    reports = {}
    for side, perms in (("left", X.left_perms), ("right", X.right_perms)):
        if side == "right" and mirrored:
            reports[side] = dict(reports["left"])
            continue
        graph = Graph.from_permutations(perms, X.group.block_perm(side))
        rep = asdict(second_eigenvalue(graph, method=method))
        rep["lambda"], rep["nvertices"] = rep.pop("lam"), rep.pop("n_vertices")
        reports[side] = rep
    lam = max(reports["left"]["lambda"], reports["right"]["lambda"])
    return {"lambda": lam, "cayley": reports}


def complex_lambda(X: CayleyComplex, method: str = "auto") -> float:
    """Expansion of the complex: max of the two Cayley graph eigenvalues."""
    return complex_spectrum(X, method)["lambda"]


# ---------------------------------------------------------------------------
# Expansion implications (Alon-Chung style)
# ---------------------------------------------------------------------------


def verify_expansion_implication(op, R, delta: float, lam: float,
                                 conclusion_scale: float = 1.0,
                                 check_op: bool = True) -> dict:
    """Record the implication <op 1_R, 1_R> >= delta|R|  =>  |R| >= bound.

    With conclusion_scale = 1 the bound is (delta - lam) * dim (the
    symmetric-Markov-expanding implication); with conclusion_scale = 2r it is the
    edge-operator form (delta - lam)/(2r) * |E|.  Both sides are decided
    exactly: <op 1_R, 1_R> = sum_t w_t * #{(i, k) : i, table_t[i, k] in R} / d_t
    is counted in integers, and delta, lam and the scale are taken as the
    exact values of their floats.  The float fields are reported as before.
    """
    R = np.asarray(R)
    if R.dtype == bool:
        R = np.nonzero(R)[0]
    if R.size == 0:
        raise ValueError("R must be nonempty")
    if check_op:
        op.check()
    ind = np.zeros(op.dim)
    ind[R] = 1.0
    quad = float(ind @ op.matvec(ind))
    inside = ind.astype(bool)
    exact_quad = sum(w * Fraction(int(inside[table[inside]].sum()), table.shape[1])
                     for w, table in op.terms)
    hypothesis = exact_quad >= Fraction(delta) * R.size
    conclusion = (R.size >= (Fraction(delta) - Fraction(lam)) * op.dim
                  / Fraction(conclusion_scale))
    return {
        "size_R": int(R.size),
        "dim": op.dim,
        "delta": delta,
        "lambda": lam,
        "delta_R": quad / R.size,
        "quad_form": quad,
        "conclusion_bound": (delta - lam) * op.dim / conclusion_scale,
        "hypothesis_holds": hypothesis,
        "conclusion_holds": conclusion,
        "implication_holds": (not hypothesis) or conclusion,
    }
