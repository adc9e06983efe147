"""Intrinsic distances, ball volumes, and discrete perimeters.

A model has one distance, and ``distance_field`` is its rule: the closed
form of the model space where the oracle has one (Euclidean, flat torus,
round sphere), evaluated from one source over every node in one array
call, and the graph distance otherwise (the Heisenberg lattice, whose
oracle has no closed-form distance yet).  Every check reads its distance
there; ``oracle=None`` asks for the graph distance by name.  Each field is
kept in the model's derived-data cache (``model.derived``, beside the
adjacency), so every caller, the dual's start included, shares one
evaluation per (route, source).

* graph: Dijkstra over the model edges.  Edge lengths are chart lengths;
  for the Heisenberg lattice only the horizontal moves carry edges, each of
  unit-speed traversal time h, so graph distances are automatically
  Carnot-Caratheodory-flavoured (and overestimate by the lattice
  anisotropy, which the distance sandwich records and which never alters
  certified bounds).  It bounds the model's distance d from above.
* dual: any field with pointwise Gamma(f) <= 1 certifies the lower bound
  f(x) - f(y) on the discrete intrinsic distance
  sup{f(x) - f(y) : max-node Gamma(f) <= 1}, which can exceed d by O(h)
  (about 0.08 h on the default torus1, whose graph distance is exact).
  The model's distance field to y is rescaled to feasibility, then
  improved by a smoothed ascent; feasibility, not optimality, is the
  certificate.
* subunit (Heisenberg): the closed-form Carnot-Caratheodory distance of
  the continuous group from the origin to one target or to rows of them,
  the length of the circular-arc geodesic that reaches each; its roots are
  bisected in numpy, so importing heatlab does not load scipy.optimize.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .fields import DiscretizedModel, frozen
from .models import GeometryOracle


def __getattr__(name):
    # ``metric.optimize`` resolves, importing scipy.optimize on first use, only
    # because bench/spans.py reads it under --trace 1; ROADMAP item 5's
    # benchmark change deletes this together with metric.subunit.loss_evals
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DistanceField:
    """Distance of every node from ``source``.  Takes ownership of
    ``values``: it is copied only when a cast to float is needed and is
    otherwise frozen in place."""

    model_id: str
    source: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(self.values, float))


def graph_distance(model: DiscretizedModel, source: int) -> DistanceField:
    """Shortest-path distance from one node over the model edges (one run)."""
    d = dijkstra(model.adjacency(), directed=True, indices=source)
    if not np.all(np.isfinite(d)):
        raise ValueError("model graph is disconnected")
    return DistanceField(model.model_id, source, d)


def oracle_distance(model: DiscretizedModel, oracle: GeometryOracle, source: int) -> DistanceField:
    if oracle.exact_distance is None:
        raise ValueError("oracle carries no closed-form distance")
    vals = oracle.exact_distance(model.nodes[source], model.nodes)
    return DistanceField(model.model_id, source, vals)


def distance_field(model, oracle, source) -> DistanceField:
    """The model's distance from ``source``: the oracle's closed form where
    ``oracle`` has one, the graph distance otherwise or when ``oracle`` is
    None.

    Each result is kept in ``model.derived`` under (route, source), beside the
    adjacency, so each route runs once per source.  ``oracle`` is the one
    built with ``model``.
    """
    exact = oracle is not None and oracle.exact_distance is not None
    memo = model.derived.setdefault("_distance", {})
    key = ("oracle" if exact else "graph", int(source))
    if key not in memo:
        memo[key] = (oracle_distance(model, oracle, key[1]) if exact
                     else graph_distance(model, key[1]))
    return memo[key]


# ---------------------------------------------------------------------------
# dual (certificate) distance


def _jacobi_smooth(model: DiscretizedModel, v: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """``steps`` explicit heat steps of size ``dt``."""
    for _ in range(steps):
        v = v + dt * (model.L @ v)
    return v


def _feasible_value(model, cand: np.ndarray, x: int, y: int):
    g = model.edge_form.evaluate(model.mu, cand, cand)
    s = float(np.sqrt(max(g.max(), 1e-300)))
    f = cand / s
    return f[x] - f[y], f


@dataclass(frozen=True)
class DualCertificate:
    value: float                    # lower bound on the discrete intrinsic distance
    feasibility: float              # max-node Gamma of the field (<= 1)


def _cap_cones(values: np.ndarray, eps: float) -> np.ndarray:
    """Flatten the tips of a distance-like field.

    Cone tips (at the source and at cut loci) carry a discrete Gamma spike
    of about twice the interior value; a parabolic cap keeps the slope
    bound while losing only eps/2 of range at each end.
    """
    v = values - values.min()
    cap = np.where(v < eps, 0.5 * eps + v**2 / (2 * eps), v)
    top = cap.max()
    w = top - cap
    cap = top - np.where(w < eps, 0.5 * eps + w**2 / (2 * eps), w)
    return cap


def dual_distance(model: DiscretizedModel, oracle: GeometryOracle | None, x: int,
                  y: int) -> DualCertificate:
    """Lower bound on the discrete intrinsic distance between x and y.

    Maximizes f(x) - f(y) over fields with max-node Gamma(f) <= 1, starting
    from ``distance_field(model, oracle, y)`` after 0, 2 and 8 smoothing
    steps and, in flat charts, from the horizontal linear field.  Any
    feasible field certifies; 30 ascent steps return the best so far.
    """
    # smoothing steps at half the diagonal CFL limit, which keeps them stable
    dt = 0.5 / float(-model.L.diagonal().min())
    v, candidates = distance_field(model, oracle, y).values, []
    for steps in (0, 2, 6):                  # 0, 2 and 8 steps in all
        v = _jacobi_smooth(model, v, steps, dt)
        candidates.append(_cap_cones(v, 0.75 * float(model.meta["h"])))
    if model.kind in ("euclidean", "torus", "heisenberg"):
        u = model.nodes[x] - model.nodes[y]
        if model.kind == "heisenberg":
            u[2] = 0.0               # only horizontal coordinates are 1-Lipschitz
        nrm = np.linalg.norm(u)
        if nrm > 0:
            candidates.append(model.nodes @ (u / nrm))

    best_val, best_f = -np.inf, None
    for cand in candidates:
        val, f = _feasible_value(model, cand, x, y)
        if val > best_val:
            best_val, best_f = val, f

    # smoothed ascent on the best candidate
    direction = np.zeros(model.n_nodes)
    direction[x], direction[y] = 1.0, -1.0
    direction = _jacobi_smooth(model, direction, 4, dt)
    step = 0.5 * best_val if best_val > 0 else 1.0
    cur = best_f
    for _ in range(30):
        trial = cur + step * direction
        val, f = _feasible_value(model, trial, x, y)
        if val > best_val:
            best_val, best_f, cur = val, f, f
        else:
            step *= 0.5
            if step < 1e-3 * max(best_val, 1e-12):
                break

    g = model.edge_form.evaluate(model.mu, best_f, best_f)
    return DualCertificate(value=float(best_val), feasibility=float(g.max()))


# ---------------------------------------------------------------------------
# the Carnot-Caratheodory distance on the Heisenberg group


# 6 (x - sin x) / x^3 = sum_k (-1)^k 6 x^(2k) / (2k + 3)!, highest power first
_SEGMENT_SERIES = [(-1) ** k * 6 / math.factorial(2 * k + 3) for k in range(8, -1, -1)]
_RTOL, _TINY = 4 * np.finfo(float).eps, np.finfo(float).tiny


def _flat_area(phi: np.ndarray) -> np.ndarray:
    """(2 phi - sin 2 phi) / (8 sin^2 phi), 0 < phi < pi: the segment area
    over a unit chord whose arc turns by 2 phi.  Evaluated as
    (phi / 6) S(2 phi) (phi / sin phi)^2, S(x) = 6 (x - sin x) / x^3, with S
    summed as its series for x < 1, so nothing cancels as phi -> 0."""
    x = 2 * phi
    shape, series = np.empty_like(x), x < 1
    shape[series] = np.polyval(_SEGMENT_SERIES, x[series] ** 2)
    big = x[~series]
    shape[~series] = 6 * (big - np.sin(big)) / big**3
    return phi / 6 * shape * (phi / np.sin(phi)) ** 2


def _steep_segment(psi: np.ndarray) -> np.ndarray:
    """2 phi - sin 2 phi at phi = pi - psi: twice the area of the unit
    circle's segment whose arc turns by 2 phi."""
    return 2 * np.pi - 2 * psi + np.sin(2 * psi)


def _increasing_root(f, level, lo, hi) -> np.ndarray:
    """Row-wise roots of f(t) = level for an elementwise increasing f, by
    bisection of the brackets [lo, hi] until each spans at most 4 eps of
    its lower end (brentq's default rtol).  A row stops halving when its
    bracket closes, so its root does not depend on the other rows."""
    lo, hi = lo.copy(), hi.copy()
    if np.any(f(lo) > level) or np.any(f(hi) < level):
        raise ValueError("bracket does not straddle the root")
    rows = np.arange(lo.size)
    for _ in range(200):                     # 52 close any bracket of normal floats
        rows = rows[hi[rows] - lo[rows] > _RTOL * lo[rows] + _TINY]
        if rows.size == 0:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[rows] + hi[rows])
        below = f(mid) <= level[rows]
        lo[rows[below]], hi[rows[~below]] = mid[below], mid[~below]
    raise ValueError("bisection did not close its brackets in 200 halvings")


def subunit_distance_heisenberg(target):
    """Carnot-Caratheodory distance from the origin to ``target``: the
    length of the shortest subunit curve that reaches it.  One target gives
    a float, an (n, 3) array of targets an (n,) array.

    Horizontal curves x' = u, y' = v with u^2 + v^2 <= 1 lift by
    z' = (x v - y u)/2, so z is the signed area between the curve and its
    chord.  The shortest curve to (x, y, z) with r = |(x, y)| > 0 is a
    circular arc over the chord that turns by 2 phi, where

        (2 phi - sin 2 phi) / (8 sin^2 phi) = |z| / r^2,   0 <= phi < pi,

    and its length is r phi / sin phi; the vertical target (0, 0, z) is
    reached by a full circle of length 2 sqrt(pi |z|) (Gaveau, Acta Math.
    139 (1977); Beals, Gaveau & Greiner, J. Math. Pures Appl. 79 (2000)).
    The root is taken in phi up to pi/2 and in psi = pi - phi beyond, from
    scale-free ratios, so both ends keep full precision; all rows are
    bisected at once, each branch only on its own rows.
    """
    q = np.asarray(target, dtype=float)
    x, y, z = q.reshape(-1, 3).T
    r, a = np.hypot(x, y), np.abs(z)
    d = r.copy()                              # |z| = 0: the chord itself
    vert = r == 0
    d[vert] = 2 * np.sqrt(np.pi * a[vert])
    mu = np.zeros_like(r)                     # |z| / r^2
    # an inf ratio is safe: its row takes the steep branch with nu = 0
    with np.errstate(over="ignore"):
        mu[~vert] = (np.sqrt(a[~vert]) / r[~vert]) ** 2
    flat = (mu > 0) & (mu <= np.pi / 8)       # phi <= pi/2, where mu / phi is in [1/6, 1/4]
    m = mu[flat]
    phi = _increasing_root(_flat_area, m, 3 * m, np.minimum(7 * m, 2.0))
    d[flat] = r[flat] * phi / np.sin(phi)
    steep = mu > np.pi / 8
    nu = (r[steep] / np.sqrt(a[steep])) ** 2  # r^2 / |z|; psi / sqrt(nu) is in [0.88, 0.99]
    psi = _increasing_root(lambda s: 8 * np.sin(s) ** 2 / _steep_segment(s), nu,
                           0.5 * np.sqrt(nu), np.minimum(2 * np.sqrt(nu), 2.0))
    d[steep] = (np.pi - psi) * np.sqrt(8 * a[steep] / _steep_segment(psi))
    return float(d[0]) if q.ndim == 1 else d


# ---------------------------------------------------------------------------
# perimeters and ball volumes


def discrete_perimeter(model: DiscretizedModel, node_mask) -> float:
    """Cut-edge perimeter sum_{cut} c_e * len_e.

    On axis grids the summand is the dual-cell face area h^(n-1), so the
    value is first-order consistent with the continuum perimeter of
    axis-aligned sets.  It measures the anisotropic (per-axis projected)
    perimeter of oblique boundaries.
    """
    mask = np.asarray(node_mask)
    if mask.dtype != bool:
        m = np.zeros(model.n_nodes, dtype=bool)
        m[mask] = True
        mask = m
    ef = model.edge_form
    cut = mask[ef.i] != mask[ef.j]
    return float(np.sum(ef.c[cut] * model.edge_length[cut]))


def ball_volumes(model: DiscretizedModel, d: np.ndarray, radii) -> np.ndarray:
    """mu-measure of the closed balls {d <= r}, r in the strictly ascending
    ``radii``, where ``d`` holds the distance of every node to the centre."""
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly ascending")
    order = np.argsort(d)
    pos = np.searchsorted(d[order], radii, side="right")
    cum = model.mu[order]
    del order
    np.cumsum(cum, out=cum)
    return np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)


def volume_growth_exponent(radii: np.ndarray, volumes: np.ndarray) -> float:
    """Log-log slope of ball volume against radius."""
    good = volumes > 0
    return float(np.polyfit(np.log(radii[good]), np.log(volumes[good]), 1)[0])
