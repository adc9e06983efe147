"""Discrete function calculus on weighted graphs.

A model is a finite weighted graph: node coordinates in a chart, a positive
cell measure ``mu``, and the graph Laplacian

    (L f)_i = (1/mu_i) * sum_j c_ij (f_j - f_i)

assembled from an edge list with positive conductances.  This construction
makes the three operator axioms exact by design: mu-weighted symmetry
(mu_i L_ij = mu_j L_ji), L applied to constants vanishes, and the Dirichlet
form <f, -Lf>_mu = sum_e c_e (df_e)^2 is nonnegative.

The first-order bilinear form (squared-gradient form) is assembled from the
same edges,

    Gamma(f, g)_i = (1/(2 mu_i)) * sum_j c_ij (f_j - f_i)(g_j - g_i),

which coincides exactly with (L(fg) - f Lg - g Lf)/2 whenever L is the
graph Laplacian of the same edge list (a built-in self test enforces this).
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
    """One real value per node; the universal function representation."""

    model_id: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise MismatchError("field values must be a 1-d array")
        if not np.all(np.isfinite(v)):
            raise MismatchError("field contains non-finite entries")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class EdgeForm:
    """A symmetric bilinear edge form sum_e c_e df_e dg_e / (2 mu)."""

    i: np.ndarray
    j: np.ndarray
    c: np.ndarray
    n_nodes: int

    def __post_init__(self):
        for name in ("i", "j", "c"):
            a = np.asarray(getattr(self, name))
            a = a.astype(np.int64 if name != "c" else float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.any(self.c < 0):
            raise ValueError("edge conductances must be nonnegative")

    @property
    def n_edges(self) -> int:
        return self.i.shape[0]

    def differences(self, values: np.ndarray) -> np.ndarray:
        return values[self.j] - values[self.i]

    def evaluate(self, mu: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        e = self.c * self.differences(f) * self.differences(g)
        out = np.zeros(self.n_nodes)
        np.add.at(out, self.i, e)
        np.add.at(out, self.j, e)
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
    """Finite stand-in for a (manifold, measure, diffusion operator) triple."""

    model_id: str
    kind: str
    nodes: np.ndarray           # (N, d) chart coordinates
    mu: np.ndarray              # (N,) positive cell measures
    L: sp.csr_matrix            # graph Laplacian, self-adjoint in L2(mu)
    edge_form: EdgeForm         # edges (i, j, c_ij) that assemble L and Gamma
    edge_length: np.ndarray     # chart length per edge (distance weights)
    boundary_mask: np.ndarray   # True on truncation-boundary nodes
    meta: dict = field(default_factory=dict)      # what the builder states (h, ...)
    vertical_form: EdgeForm | None = None   # edges of Gamma^Z (sub-Riemannian only)
    # caches of values computed from the model; a copy starts without them
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "mu", "edge_length"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        b = np.asarray(self.boundary_mask, dtype=bool).copy()
        b.setflags(write=False)
        object.__setattr__(self, "boundary_mask", b)
        if np.any(self.mu <= 0):
            raise ValueError("cell measures must be positive")

    @property
    def n_nodes(self) -> int:
        return self.mu.shape[0]

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

    def adjacency(self, weights: str = "length") -> sp.csr_matrix:
        """Edge weights, symmetric by construction: each edge is stored as
        (i, j) and as (j, i), so Dijkstra runs on it as a directed graph."""
        key = f"_adj_{weights}"
        if key not in self.derived:
            ef = self.edge_form
            w = self.edge_length if weights == "length" else np.ones(ef.n_edges)
            n = self.n_nodes
            a = sp.coo_matrix(
                (np.concatenate([w, w]),
                 (np.concatenate([ef.i, ef.j]), np.concatenate([ef.j, ef.i]))),
                shape=(n, n),
            ).tocsr()
            self.derived[key] = a
        return self.derived[key]

    def _distance_to_boundary(self, weights: str) -> np.ndarray:
        key = f"_boundary_{weights}"
        if key not in self.derived:
            if not self.boundary_mask.any():
                self.derived[key] = np.full(self.n_nodes, np.inf)
            else:
                src = np.flatnonzero(self.boundary_mask)
                self.derived[key] = dijkstra(self.adjacency(weights), directed=True,
                                             indices=src, min_only=True)
        return self.derived[key]

    def hop_distance_to_boundary(self) -> np.ndarray:
        """Graph-hop distance to the boundary node set (inf when compact)."""
        return self._distance_to_boundary("unit")

    def metric_distance_to_boundary(self) -> np.ndarray:
        """Shortest-path distance to the boundary node set (inf when compact)."""
        return self._distance_to_boundary("length")


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


def gamma2(model: DiscretizedModel, f: ScalarField) -> ScalarField:
    """Iterated form Gamma2(f) = (L Gamma(f) - 2 Gamma(f, Lf))/2.

    Trust it on deep-interior nodes only (two hops from the boundary).
    """
    fv = model.check_field(f)
    lf = model.field(model.L @ fv)
    g = carre_du_champ(model, f)
    out = 0.5 * (model.L @ g.values) - carre_du_champ(model, f, lf).values
    return model.field(out)


def gamma_z(model: DiscretizedModel, f: ScalarField,
            g: ScalarField | None = None) -> ScalarField:
    """Vertical form Gamma^Z(f, g) from the model's vertical edge list."""
    if model.vertical_form is None:
        raise NotApplicableError(f"model {model.model_id!r} has no vertical structure")
    fv = model.check_field(f)
    gv = fv if g is None else model.check_field(g)
    return model.field(model.vertical_form.evaluate(model.mu, fv, gv))


def gamma2_z(model: DiscretizedModel, f: ScalarField) -> ScalarField:
    """Iterated vertical form (L Gamma^Z(f) - 2 Gamma^Z(f, Lf))/2."""
    fv = model.check_field(f)
    lf = model.field(model.L @ fv)
    gz = gamma_z(model, f)
    out = 0.5 * (model.L @ gz.values) - gamma_z(model, f, lf).values
    return model.field(out)


# ---------------------------------------------------------------------------
# operator axioms


def self_test_gamma(model: DiscretizedModel, seed: int = 0, n_fields: int = 3) -> float:
    """Max disagreement between the edge and operator routes to Gamma."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        f = model.field(rng.standard_normal(model.n_nodes))
        g = model.field(rng.standard_normal(model.n_nodes))
        a = carre_du_champ(model, f, g).values
        b = carre_du_champ_operator_path(model, f, g).values
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


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
    d, idx = np.arange(n), np.int32 if n < 2**31 else np.int64
    L = sp.coo_matrix((np.concatenate([c, c, -diag]),
                       (np.concatenate([i, j, d], dtype=idx),
                        np.concatenate([j, i, d], dtype=idx))), shape=(n, n)).tocsr()
    return sp.diags(1.0 / mu) @ L
