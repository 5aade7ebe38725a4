"""Normalized adjacency operators on Cayley complexes and their spectra.

Provides the vertex operator T, the edge/vertex averaging maps D and Dt,
the edge operator M = Dt T D, the parallel-walk operator Mpar with its
per-label blocks, and convex mixtures M_gamma = gamma*M + (1-gamma)*Mpar.
All of them are symmetric Markov operators whenever both Cayley graphs of
the complex expand; the expansion-implication checker quantifies that.

Operators are materialized densely below DENSE_LIMIT and as matrix-free
closures above it; structural checks run at 1e-12 (dense) or on sampled
entries at 1e-9 (matrix-free).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .complexes import LEFT, CayleyComplex
from .groups import Graph, cayley_graph

DENSE_LIMIT = 20000


class OperatorCheckError(ValueError):
    """An operator failed a required symmetry/Markov structural check."""


class DenseOperator:
    """Square real operator held as a dense matrix."""

    def __init__(self, matrix: np.ndarray, labels=None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self.labels = labels

    def matvec(self, f: np.ndarray) -> np.ndarray:
        return self.matrix @ f

    def quad_form(self, f: np.ndarray) -> float:
        return float(f @ (self.matrix @ f))

    def symmetry_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())

    def markov_defect(self) -> float:
        row = float(np.abs(self.matrix.sum(axis=1) - 1.0).max())
        neg = float(max(0.0, -self.matrix.min()))
        return max(row, neg)

    def check(self, tol: float = 1e-12) -> None:
        if self.symmetry_defect() > tol:
            raise OperatorCheckError(f"symmetry defect {self.symmetry_defect():g} > {tol:g}")
        if self.markov_defect() > tol:
            raise OperatorCheckError(f"Markov defect {self.markov_defect():g} > {tol:g}")


class MatFreeOperator:
    """Square operator given by a matvec closure; checks sample entries."""

    def __init__(self, dim: int, fn, labels=None):
        self.dim = dim
        self._fn = fn
        self.labels = labels

    def matvec(self, f: np.ndarray) -> np.ndarray:
        return self._fn(np.asarray(f, dtype=float))

    def quad_form(self, f: np.ndarray) -> float:
        return float(f @ self.matvec(f))

    def check(self, tol: float = 1e-9, samples: int = 32, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        ones = np.ones(self.dim)
        if np.abs(self.matvec(ones) - 1.0).max() > tol:
            raise OperatorCheckError("row sums differ from 1")
        for _ in range(samples):
            basis_vec = np.zeros(self.dim)
            basis_vec[int(rng.integers(self.dim))] = 1.0
            if self.matvec(basis_vec).min() < -tol:
                raise OperatorCheckError("negative entry")
            f = rng.standard_normal(self.dim)
            g = rng.standard_normal(self.dim)
            lhs = float(g @ self.matvec(f))
            rhs = float(f @ self.matvec(g))
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) / scale > tol:
                raise OperatorCheckError(f"symmetry defect {abs(lhs - rhs):g}")


def _require_square_regular(X: CayleyComplex) -> int:
    if X.nA != X.nB:
        raise ValueError(f"operators need |A| = |B|; got {X.nA} != {X.nB}")
    return X.nA


def underlying_graph(X: CayleyComplex) -> Graph:
    """The (|A|+|B|)-regular graph on V with both edge types."""
    n = X.n_vertices
    verts = np.arange(n, dtype=np.int64)
    arcs = np.concatenate([
        np.stack([verts, X.vert_image[lbl]], axis=1) for lbl in range(X.n_labels)])
    return Graph(n, arcs, name="underlying")


def build_T(X: CayleyComplex, dense: bool | None = None):
    """Vertex operator Tf(g) = (1/2r) sum_l f(g^l)."""
    r = _require_square_regular(X)
    n = X.n_vertices
    if dense is None:
        dense = n <= DENSE_LIMIT
    if dense:
        T = np.zeros((n, n))
        for lbl in range(X.n_labels):
            np.add.at(T, (np.arange(n), X.vert_image[lbl]), 1.0 / (2 * r))
        return DenseOperator(T)
    vi = X.vert_image

    def fn(f):
        return f[vi].sum(axis=0) / (2 * r)

    return MatFreeOperator(n, fn)


def build_D(X: CayleyComplex) -> np.ndarray:
    """Edge-to-vertex averaging: Df(g) = (1/2r) sum_l f(<g;l>); rows sum to 1."""
    r = _require_square_regular(X)
    n, m = X.n_vertices, X.n_edges
    D = np.zeros((n, m))
    for lbl in range(X.n_labels):
        np.add.at(D, (np.arange(n), X.edge_at[lbl]), 1.0 / (2 * r))
    return D


def build_Dt(X: CayleyComplex) -> np.ndarray:
    """Vertex-to-edge averaging: Dt f(<g;l>) = (f(g) + f(g^l)) / 2."""
    _require_square_regular(X)
    n, m = X.n_vertices, X.n_edges
    Dt = np.zeros((m, n))
    u, v = X.edge_endpoint_arrays()
    np.add.at(Dt, (np.arange(m), u), 0.5)
    np.add.at(Dt, (np.arange(m), v), 0.5)
    return Dt


def build_M(X: CayleyComplex, dense: bool | None = None):
    """The edge walk M = Dt o T o D: symmetric, Markov, lambda-expanding."""
    r = _require_square_regular(X)
    m = X.n_edges
    if dense is None:
        dense = m <= DENSE_LIMIT
    if dense:
        D = build_D(X)
        Dt = build_Dt(X)
        T = build_T(X, dense=True).matrix
        return DenseOperator(Dt @ T @ D)
    u, v = X.edge_endpoint_arrays()
    vi = X.vert_image
    ea = X.edge_at
    n = X.n_vertices

    def fn(f):
        df = f[ea].sum(axis=0) / (2 * r)
        tdf = df[vi].sum(axis=0) / (2 * r)
        return 0.5 * (tdf[u] + tdf[v])

    return MatFreeOperator(m, fn)


def parallel_neighbor_table(X: CayleyComplex) -> np.ndarray:
    """(n_edges, r) ids: <g;l> moved along every opposite-type label."""
    r = _require_square_regular(X)
    t, pos, g = X.edge_rep[:, 0], X.edge_rep[:, 1], X.edge_rep[:, 2]
    lbl = np.where(t == LEFT, pos, X.nA + pos)
    out = np.empty((X.n_edges, r), dtype=np.int64)
    left_mask = t == LEFT
    for k in range(r):
        opp = np.where(left_mask, X.nA + k, k)       # opposite-type label
        moved = X.vert_image[opp, g]
        out[:, k] = X.edge_at[lbl, moved]
    return out


def build_Mpar(X: CayleyComplex, dense: bool | None = None):
    """Parallel walk: Mpar f(<g;l>) = (1/r) sum over opposite-type labels."""
    r = _require_square_regular(X)
    m = X.n_edges
    nbrs = parallel_neighbor_table(X)
    if dense is None:
        dense = m <= DENSE_LIMIT
    if dense:
        M = np.zeros((m, m))
        rows = np.repeat(np.arange(m), r)
        np.add.at(M, (rows, nbrs.ravel()), 1.0 / r)
        return DenseOperator(M)

    def fn(f):
        return f[nbrs].sum(axis=1) / r

    return MatFreeOperator(m, fn)


def edge_label_classes(X: CayleyComplex) -> list[dict]:
    """Partition of edges into E_l classes ({l, l^-1} label orbits).

    Each entry carries the class labels, the edge ids, and for every edge a
    canonical root so that <root; l> is the edge with l the first label.
    """
    classes = []
    seen = set()
    for lbl in range(X.n_labels):
        inv = int(X.label_inv[lbl])
        if min(lbl, inv) in seen:
            continue
        seen.add(min(lbl, inv))
        ids = np.unique(X.edge_at[lbl])
        classes.append({
            "labels": (lbl, inv) if inv != lbl else (lbl,),
            "type": int(X.label_type[lbl]),
            "self_inverse": inv == lbl,
            "edge_ids": ids,
        })
    return classes


def build_Mpar_block(X: CayleyComplex, lbl: int):
    """The block M_l_par on E_l, indexed by root vertex g -> <g;l>.

    Returns (edge_of_root, matrix) where edge_of_root[g] is the edge id of
    <g;l>; for self-inverse labels each edge appears under two roots and the
    matrix is indexed by the distinct edge ids instead.
    """
    r = _require_square_regular(X)
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


def build_Mgamma(X: CayleyComplex, gamma: float, dense: bool | None = None):
    """M_gamma = gamma*M + (1-gamma)*Mpar for 0 < gamma < 1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    M = build_M(X, dense=dense)
    P = build_Mpar(X, dense=dense)
    if isinstance(M, DenseOperator) and isinstance(P, DenseOperator):
        return DenseOperator(gamma * M.matrix + (1 - gamma) * P.matrix)

    def fn(f):
        return gamma * M.matvec(f) + (1 - gamma) * P.matvec(f)

    return MatFreeOperator(M.dim, fn)


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

    def to_json(self) -> str:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        d["nvertices"] = d.pop("n_vertices")
        return json.dumps(d, sort_keys=True)


class ConvergenceError(RuntimeError):
    pass


def _dense_second(graph: Graph) -> SpectralReport:
    vals = np.linalg.eigvalsh(graph.normalized_adjacency())
    return SpectralReport(
        lam=float(vals[-2]), method="dense", residual=0.0, iterations=0,
        degree=graph.degree, n_vertices=graph.n_vertices,
        lambda_min=float(vals[0]))


def _lanczos_second(graph: Graph, tol: float, budget: int,
                    seed: int = 0xC0DE) -> SpectralReport:
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    ones = np.ones(n) / np.sqrt(n)

    def deflate(w):
        return w - (ones @ w) * ones

    v = deflate(rng.standard_normal(n))
    v /= np.linalg.norm(v)
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    theta_prev = None
    stable = 0
    iterations = 0
    max_steps = min(budget, n - 1)
    for k in range(max_steps):
        iterations = k + 1
        w = deflate(graph.matvec(basis[-1]))
        alpha = float(basis[-1] @ w)
        alphas.append(alpha)
        w = w - alpha * basis[-1]
        if k > 0:
            w = w - betas[-1] * basis[-2]
        # explicit re-orthogonalization against the whole basis
        Q = np.asarray(basis)
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
        basis.append(w / beta)
    else:
        raise ConvergenceError(
            f"Lanczos did not converge within {max_steps} iterations (tol={tol:g})")

    tri = np.diag(alphas)
    if betas[: len(alphas) - 1]:
        off = np.array(betas[: len(alphas) - 1])
        tri += np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(tri)
    theta = float(evals[-1])
    y = np.asarray(basis[: len(alphas)]).T @ evecs[:, -1]
    y /= np.linalg.norm(y)
    residual = float(np.linalg.norm(deflate(graph.matvec(y)) - theta * y))
    return SpectralReport(
        lam=theta, method="iterative", residual=residual, iterations=iterations,
        degree=graph.degree, n_vertices=n, lambda_min=float(evals[0]))


def second_eigenvalue(graph: Graph, method: str = "auto",
                      tol: float = 1e-10, budget: int = 100000) -> SpectralReport:
    """Second-largest eigenvalue of the normalized adjacency operator.

    One-sided: the largest eigenvalue on the complement of the constant
    vector, which may be negative (e.g. complete graphs).  Disconnected
    graphs are rejected since their second eigenvalue is trivially 1.
    """
    if not graph.is_connected():
        raise ValueError("graph is disconnected: second eigenvalue is trivially 1")
    if method == "auto":
        method = "dense" if graph.n_vertices <= 4000 else "iterative"
    if method == "dense":
        if graph.n_vertices > 4000:
            raise ValueError("dense method capped at 4000 vertices")
        return _dense_second(graph)
    if method == "iterative":
        return _lanczos_second(graph, tol, budget)
    raise ValueError(f"unknown method {method!r}")


def complex_spectrum(X: CayleyComplex, method: str = "auto",
                     tol: float = 1e-10) -> dict:
    """{"lambda": max of the two Cayley graph eigenvalues, "cayley": {"left":
    ..., "right": ...}}, each side's SpectralReport as a JSON object."""
    reports = {}
    for side, S in (("left", X.A), ("right", X.B)):
        rep = second_eigenvalue(cayley_graph(X.group, S, side), method=method, tol=tol)
        reports[side] = json.loads(rep.to_json())
    lam = max(reports["left"]["lambda"], reports["right"]["lambda"])
    return {"lambda": lam, "cayley": reports}


def complex_lambda(X: CayleyComplex, method: str = "auto", tol: float = 1e-10) -> float:
    """Expansion of the complex: max of the two Cayley graph eigenvalues."""
    return complex_spectrum(X, method, tol)["lambda"]


# ---------------------------------------------------------------------------
# Expansion implications (Alon-Chung style)
# ---------------------------------------------------------------------------


def verify_expansion_implication(op, R, delta: float, lam: float,
                                 conclusion_scale: float = 1.0,
                                 check_op: bool = True) -> dict:
    """Record the implication <op 1_R, 1_R> >= delta|R|  =>  |R| >= bound.

    With conclusion_scale = 1 the bound is (delta - lam) * dim (the
    symmetric-Markov-expanding implication); with conclusion_scale = 2r it is the
    edge-operator form (delta - lam)/(2r) * |E|.
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
    delta_R = quad / R.size
    bound = (delta - lam) * op.dim / conclusion_scale
    hypothesis = quad >= delta * R.size - 1e-12
    conclusion = R.size >= bound - 1e-12
    return {
        "size_R": int(R.size),
        "dim": op.dim,
        "delta": delta,
        "lambda": lam,
        "delta_R": delta_R,
        "quad_form": quad,
        "conclusion_bound": bound,
        "hypothesis_holds": bool(hypothesis),
        "conclusion_holds": bool(conclusion),
        "implication_holds": bool((not hypothesis) or conclusion),
    }
