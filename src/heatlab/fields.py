"""Discrete function calculus on weighted graphs.

A model is a finite weighted graph: node coordinates in a chart, a positive
cell measure ``mu``, and the graph Laplacian

    (L f)_i = (1/mu_i) * sum_j c_ij (f_j - f_i)

assembled from an edge list with positive conductances.  This construction
makes the three operator axioms exact by design: mu-weighted symmetry
(mu_i L_ij = mu_j L_ji), L applied to constants vanishes, and the Dirichlet
form <f, -Lf>_mu = sum_e c_e (df_e)^2 is nonnegative.  The edge list and
``mu`` are the model; L is derived data, assembled on first use, so a model
that no check applies L to never holds it.

The first-order bilinear form (squared-gradient form) is assembled from the
same edges,

    Gamma(f, g)_i = (1/(2 mu_i)) * sum_j c_ij (f_j - f_i)(g_j - g_i),

which coincides exactly with (L(fg) - f Lg - g Lf)/2 whenever L is the
graph Laplacian of the same edge list: every first assembly of L checks the
two routes against a derived roundoff bound (``self_test_gamma``).
The iterated form Gamma2 has no exact edge form and is evaluated by operator
composition; it is only meaningful on nodes at least two hops away from any
truncation boundary, so deep-interior masks are first-class here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra


class MismatchError(ValueError):
    """Field and model disagree on size or identity."""


class NotApplicableError(RuntimeError):
    """A check's preconditions are not met by this model."""


# ---------------------------------------------------------------------------
# core data types


@dataclass(frozen=True)
class ScalarField:
    """One real value per node, owned through ``frozen``."""

    model_id: str
    values: np.ndarray

    def __post_init__(self):
        v = frozen(self.values, float)
        if v.ndim != 1:
            raise MismatchError("field values must be a 1-d array")
        if not np.all(np.isfinite(v)):
            raise MismatchError("field contains non-finite entries")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.shape[0]


def index_dtype(count: int):
    """The dtype of ids below ``count`` (node ids in edge lists and sparse
    patterns, edge ids): int32 unless ``count`` needs more."""
    return np.int32 if count < 2**31 else np.int64


def frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only C-contiguous array of ``dtype``: the array
    itself, frozen in place, unless a dtype cast or a strided view makes a
    copy.  Every container of the model layer takes its arrays through it,
    so the caller must not write to them afterwards."""
    a = np.asarray(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EdgeForm:
    """A symmetric bilinear edge form sum_e c_e df_e dg_e / (2 mu).

    The form takes ownership of ``i`` and ``j`` (cast to ``index_dtype``)
    and ``c`` (float) through ``frozen``.
    """

    i: np.ndarray
    j: np.ndarray
    c: np.ndarray
    n_nodes: int

    def __post_init__(self):
        idx = index_dtype(self.n_nodes)
        for name, dtype in (("i", idx), ("j", idx), ("c", float)):
            object.__setattr__(self, name, frozen(getattr(self, name), dtype))
        if np.any(self.c < 0):
            raise ValueError("edge conductances must be nonnegative")

    @property
    def n_edges(self) -> int:
        return self.i.shape[0]

    def differences(self, values: np.ndarray) -> np.ndarray:
        return values[self.j] - values[self.i]

    def evaluate(self, mu: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        # numpy gathers and scatters through int32 indices about half as fast
        # as through intp ones, so the indices are cast once per call
        i, j = self.i.astype(np.intp), self.j.astype(np.intp)
        df = f[j] - f[i]
        e = self.c * df * (df if g is f else g[j] - g[i])
        out = np.zeros(self.n_nodes)
        np.add.at(out, i, e)
        np.add.at(out, j, e)
        return out / (2.0 * mu)


@dataclass(frozen=True)
class CDParameters:
    """Constants of the generalized curvature-dimension inequality."""

    rho1: float
    rho2: float
    kappa: float
    n: float

    def __post_init__(self):
        if not (self.rho2 > 0):
            raise ValueError("rho2 must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not (self.n > 0):
            raise ValueError("n must be positive")


@dataclass(frozen=True)
class DiscretizedModel:
    """Finite stand-in for a (manifold, measure, diffusion operator) triple.

    Like ``EdgeForm``, the model takes ownership of ``nodes``, ``mu``,
    ``edge_length`` (float) and ``boundary_mask`` (bool) through ``frozen``,
    so ``dataclasses.replace`` shares them with the model it copies.
    """

    model_id: str
    kind: str
    nodes: np.ndarray           # (N, d) chart coordinates
    mu: np.ndarray              # (N,) positive cell measures
    edge_form: EdgeForm         # edges (i, j, c_ij) that assemble L and Gamma
    edge_length: np.ndarray     # chart length per edge (distance weights)
    boundary_mask: np.ndarray   # True on truncation-boundary nodes
    meta: dict = field(default_factory=dict)      # what the builder states (h, ...)
    vertical_form: EdgeForm | None = None   # edges of Gamma^Z (sub-Riemannian only)
    # caches of values computed from the model; a copy starts without them
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("nodes", float), ("mu", float), ("edge_length", float),
                            ("boundary_mask", bool)):
            object.__setattr__(self, name, frozen(getattr(self, name), dtype))
        if np.any(self.mu <= 0):
            raise ValueError("cell measures must be positive")

    @property
    def n_nodes(self) -> int:
        return self.mu.shape[0]

    @property
    def L(self) -> sp.csr_matrix:
        """The graph Laplacian of ``edge_form`` and ``mu``, self-adjoint in
        L2(mu).  Assembled on first use and kept in ``derived``; the first
        assembly must pass ``self_test_gamma`` or raises AssertionError."""
        if "_L" not in self.derived:
            self.derived["_L"] = graph_laplacian(self.edge_form, self.mu)
            resid, slack = self_test_gamma(self, seed=7, n_fields=2)
            if not resid <= slack:
                del self.derived["_L"]
                raise AssertionError(f"Gamma edge/operator self-test failed for "
                                     f"{self.model_id}: {resid:g} > {slack:g}")
        return self.derived["_L"]

    @property
    def total_measure(self) -> float:
        return float(self.mu.sum())

    def field(self, values) -> ScalarField:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.n_nodes,):
            raise MismatchError(
                f"field of length {v.shape} does not fit model "
                f"{self.model_id!r} with {self.n_nodes} nodes"
            )
        return ScalarField(self.model_id, v)

    def constant(self, value: float = 1.0) -> ScalarField:
        return self.field(np.full(self.n_nodes, float(value)))

    def check_field(self, f: ScalarField) -> np.ndarray:
        if f.model_id != self.model_id:
            raise MismatchError(
                f"field belongs to {f.model_id!r}, not {self.model_id!r}"
            )
        if len(f) != self.n_nodes:
            raise MismatchError("field length does not match node count")
        return f.values

    def integrate(self, f: ScalarField | np.ndarray) -> float:
        v = f.values if isinstance(f, ScalarField) else np.asarray(f)
        return float(self.mu @ v)

    def inner(self, f, g) -> float:
        fv = f.values if isinstance(f, ScalarField) else np.asarray(f)
        gv = g.values if isinstance(g, ScalarField) else np.asarray(g)
        return float(self.mu @ (fv * gv))

    def norm(self, f, p: float = 2) -> float:
        v = f.values if isinstance(f, ScalarField) else np.asarray(f)
        if p == np.inf:
            return float(np.max(np.abs(v)))
        return float((self.mu @ np.abs(v) ** p) ** (1.0 / p))

    def apply_L(self, f: ScalarField | np.ndarray) -> np.ndarray:
        v = f.values if isinstance(f, ScalarField) else np.asarray(f)
        return self.L @ v

    # -- adjacency helpers (each computed once and kept in ``derived``)

    def adjacency(self) -> sp.csr_matrix:
        """Edge lengths, symmetric by construction: each edge is stored as
        (i, j) and as (j, i), so Dijkstra runs on it as a directed graph.

        The sparsity pattern is assembled over integer edge ids, whose
        entries the lengths then replace, so no float COO of 2E entries is
        built.  An edge form that repeats an edge, or joins a node to
        itself, raises ValueError."""
        if "_adj" not in self.derived:
            ef = self.edge_form
            n, e = self.n_nodes, ef.n_edges
            # the rows (i, j) and the columns (j, i) are two windows of (i, j, i)
            ends = np.concatenate([ef.i, ef.j, ef.i])
            ids = np.tile(np.arange(e, dtype=index_dtype(e)), 2)
            a = sp.coo_matrix((ids, (ends[:2 * e], ends[e:])), shape=(n, n)).tocsr()
            del ends, ids
            if a.nnz != 2 * e:      # the conversion summed coinciding entries
                raise ValueError(f"{self.model_id}: the edge form repeats an edge "
                                 "or has a loop")
            a.data = self.edge_length[a.data]
            self.derived["_adj"] = a
        return self.derived["_adj"]

    def _distance_to_boundary(self, unweighted: bool) -> np.ndarray:
        key = "_boundary_hops" if unweighted else "_boundary_length"
        if key not in self.derived:
            if not self.boundary_mask.any():
                self.derived[key] = np.full(self.n_nodes, np.inf)
            else:
                src = np.flatnonzero(self.boundary_mask)
                self.derived[key] = dijkstra(self.adjacency(), directed=True,
                                             indices=src, min_only=True,
                                             unweighted=unweighted)
        return self.derived[key]

    def hop_distance_to_boundary(self) -> np.ndarray:
        """Graph-hop distance to the boundary node set (inf when compact),
        counted over ``adjacency()`` with its lengths ignored."""
        return self._distance_to_boundary(unweighted=True)

    def metric_distance_to_boundary(self) -> np.ndarray:
        """Shortest-path distance to the boundary node set (inf when compact)."""
        return self._distance_to_boundary(unweighted=False)


def deep_interior(model: DiscretizedModel, hops: int = 2) -> np.ndarray:
    """Nodes where second-order forms are trustworthy.

    Graph distance >= ``hops`` from the truncation boundary, intersected
    with the model's trusted mask when the chart has degenerate spots
    (for example the polar caps of a latitude sphere grid).
    """
    mask = model.hop_distance_to_boundary() >= hops
    trusted = model.meta.get("trusted_mask")
    if trusted is not None:
        mask = mask & trusted
    return mask


def interior_for_time(model: DiscretizedModel, t: float) -> np.ndarray:
    """Safety mask for time-t heat checks: metric distance > 3 sqrt(t).

    The factor 3 is motivated by Gaussian tail decay of boundary
    contamination; the two-hop floor keeps second-order forms meaningful.
    """
    mask = deep_interior(model, hops=2)
    if model.boundary_mask.any() and t > 0:
        mask = mask & (model.metric_distance_to_boundary() > 3.0 * np.sqrt(t))
    return mask


# ---------------------------------------------------------------------------
# bilinear forms


def carre_du_champ(model: DiscretizedModel, f: ScalarField,
                   g: ScalarField | None = None) -> ScalarField:
    """Squared-gradient form Gamma(f, g) = (L(fg) - f Lg - g Lf)/2.

    Evaluated through the edge list, which reproduces the operator formula
    exactly for graph Laplacians and is pointwise nonnegative for g = f.
    """
    fv = model.check_field(f)
    gv = fv if g is None else model.check_field(g)
    return model.field(model.edge_form.evaluate(model.mu, fv, gv))


def carre_du_champ_operator_path(model: DiscretizedModel, f: ScalarField,
                                 g: ScalarField | None = None) -> ScalarField:
    """Gamma via operator composition; used by the edge/operator self test."""
    fv = model.check_field(f)
    gv = fv if g is None else model.check_field(g)
    out = 0.5 * (model.L @ (fv * gv) - fv * (model.L @ gv) - gv * (model.L @ fv))
    return model.field(out)


def cd_forms(model: DiscretizedModel, f: ScalarField):
    """(Gamma f, Gamma2 f, (Lf)^2) on every node, from one Lf and one Gamma f.

    Gamma2 f = (L Gamma(f) - 2 Gamma(f, Lf))/2; trust it on deep-interior
    nodes only (two hops from the boundary).
    """
    lf = model.field(model.L @ model.check_field(f))
    g = carre_du_champ(model, f).values
    g2 = 0.5 * (model.L @ g) - carre_du_champ(model, f, lf).values
    return g, g2, lf.values ** 2


def gamma2(model: DiscretizedModel, f: ScalarField) -> ScalarField:
    """Iterated form Gamma2(f), read from ``cd_forms``."""
    return model.field(cd_forms(model, f)[1])


def gamma_z(model: DiscretizedModel, f: ScalarField,
            g: ScalarField | None = None) -> ScalarField:
    """Vertical form Gamma^Z(f, g) from the model's vertical edge list."""
    if model.vertical_form is None:
        raise NotApplicableError(f"model {model.model_id!r} has no vertical structure")
    fv = model.check_field(f)
    gv = fv if g is None else model.check_field(g)
    return model.field(model.vertical_form.evaluate(model.mu, fv, gv))


def gamma2_z(model: DiscretizedModel, f: ScalarField):
    """(Gamma^Z f, Gamma2^Z f) on every node, from one Lf and one Gamma^Z f:
    the vertical form and its iterated form (L Gamma^Z(f) - 2 Gamma^Z(f, Lf))/2."""
    lf = model.field(model.L @ model.check_field(f))
    gz = gamma_z(model, f).values
    return gz, 0.5 * (model.L @ gz) - gamma_z(model, f, lf).values


# ---------------------------------------------------------------------------
# operator axioms


def self_test_gamma(model: DiscretizedModel, seed: int = 0,
                    n_fields: int = 3) -> tuple[float, float]:
    """(residual, slack): the largest disagreement between the edge and the
    operator routes to Gamma(f, g) over ``n_fields`` random pairs, and the
    roundoff bound that it stays under when L is the graph Laplacian of the
    edge list.

    With s = max |L_ij|, r the longest row of L, eps the machine epsilon
    and F G the largest max |f| max |g| of a pair drawn, the slack is
    4 (r + 3) eps s F G.  Each row of a graph Laplacian has
    sum_j |L_ij| = 2 |L_ii| <= 2 s, each entry of L carries at most r
    roundings of eps/2, and a row of the matrix product r more.  So, to
    first order in eps:
    - each of L(fg), f Lg and g Lf is within (2 r + 1) eps s F G of exact,
      and the two subtractions add 6 eps s F G; halving the result halves
      its error, to (3 r + 4.5) eps s F G;
    - the edge route sums at most r - 1 terms of total size 2 s F G per
      node, each term carrying 4 roundings and the division one more:
      (r + 4) eps s F G.
    The sum, (4 r + 8.5) eps s F G, is below the slack.
    """
    rng = np.random.default_rng(seed)
    L = model.L
    worst, size = 0.0, 0.0
    for _ in range(n_fields):
        f = model.field(rng.standard_normal(model.n_nodes))
        g = model.field(rng.standard_normal(model.n_nodes))
        a = carre_du_champ(model, f, g).values
        b = carre_du_champ_operator_path(model, f, g).values
        worst = max(worst, float(np.max(np.abs(a - b))))
        size = max(size, float(np.abs(f.values).max() * np.abs(g.values).max()))
    rows = int(np.diff(L.indptr).max(initial=0))
    scale = float(np.abs(L.data).max(initial=0.0))
    return worst, float(4 * (rows + 3) * np.finfo(float).eps * scale * size)


# ---------------------------------------------------------------------------
# assembly helper


def graph_laplacian(edge_form: EdgeForm, mu: np.ndarray) -> sp.csr_matrix:
    """Assemble (Lf)_i = sum_j c_ij (f_j - f_i) / mu_i as a sparse matrix.

    The diagonal sums the edges with i = node, then those with j = node,
    each in edge order, as summing (i, i, -c) and (j, j, -c) duplicates in
    a COO of 4E entries would; the row scaling drops zero entries.
    """
    n = edge_form.n_nodes
    i, j, c = edge_form.i, edge_form.j, edge_form.c
    diag = np.zeros(n)
    np.add.at(diag, i, c)
    np.add.at(diag, j, c)
    d, idx = np.arange(n), index_dtype(n)
    L = sp.coo_matrix((np.concatenate([c, c, -diag]),
                       (np.concatenate([i, j, d], dtype=idx),
                        np.concatenate([j, i, d], dtype=idx))), shape=(n, n)).tocsr()
    return sp.diags(1.0 / mu) @ L
