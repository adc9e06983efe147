"""Intrinsic distances, ball tables, and discrete perimeters.

Four routes to the distance are kept.  The dual certificate and the graph
distance bracket the intrinsic distance,

    dual certificate  <=  intrinsic distance  <=  graph distance (+ mesh slack)

* oracle: the closed form of the model space (Euclidean, flat torus, round
  sphere), evaluated from one source over every node in one array call.
* graph: Dijkstra over the model edges.  Edge lengths are chart lengths;
  for the Heisenberg lattice only the horizontal moves carry edges, each of
  unit-speed traversal time h, so graph distances are automatically
  Carnot-Caratheodory-flavoured (and overestimate by the lattice
  anisotropy, which is calibrated and recorded, never used to alter
  certified bounds).
* dual: any field with pointwise Gamma(f) <= 1 certifies the lower bound
  f(x) - f(y).  Candidates are rescaled to feasibility, then improved by a
  smoothed ascent; feasibility, not optimality, is the certificate.
* subunit (Heisenberg): the closed-form Carnot-Caratheodory distance of
  the continuous group from the origin to one target, the length of the
  circular-arc geodesic that reaches it.

``distance_field`` keeps each oracle and graph distance in the model's
derived-data cache (``model.derived``, beside the adjacency), so every caller
shares one evaluation per (route, source).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.sparse.csgraph import dijkstra

from .fields import DiscretizedModel
from .models import GeometryOracle


@dataclass(frozen=True)
class DistanceField:
    model_id: str
    source: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class BallTable:
    model_id: str
    center: int
    radii: np.ndarray
    volumes: np.ndarray              # mu-measure of closed balls
    perimeters: np.ndarray           # cut-edge perimeters
    coarea_perimeters: np.ndarray    # dV/dr (matches smooth-ball perimeter)

    def __post_init__(self):
        for name in ("radii", "volumes", "perimeters", "coarea_perimeters"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.any(np.diff(self.volumes) < -1e-12):
            raise ValueError("ball volumes must be nondecreasing")


def graph_distance(model: DiscretizedModel, source: int) -> DistanceField:
    """Shortest-path distance from one node over the model edges (one run)."""
    d = dijkstra(model.adjacency(), directed=False, indices=source)
    if not np.all(np.isfinite(d)):
        raise ValueError("model graph is disconnected")
    return DistanceField(model.model_id, source, d)


def oracle_distance(model: DiscretizedModel, oracle: GeometryOracle, source: int) -> DistanceField:
    if oracle.exact_distance is None:
        raise ValueError("oracle carries no closed-form distance")
    vals = oracle.exact_distance(model.nodes[source], model.nodes)
    return DistanceField(model.model_id, source, vals)


def distance_field(model, oracle, source, method="auto") -> DistanceField:
    """Distance from ``source`` by the oracle or the graph route.

    Each result is kept in ``model.derived`` under (route, source), beside the
    adjacency, so each route runs once per source.  ``oracle`` is the one
    built with ``model``.
    """
    if method == "auto":
        method = "oracle" if (oracle is not None and oracle.exact_distance) else "graph"
    memo = model.derived.setdefault("_distance", {})
    key = (method, int(source))
    if key not in memo:
        if method == "oracle":
            memo[key] = oracle_distance(model, oracle, key[1])
        elif method == "graph":
            memo[key] = graph_distance(model, key[1])
        else:
            raise ValueError(f"unknown distance method {method!r}")
    return memo[key]


# ---------------------------------------------------------------------------
# dual (certificate) distance


def _jacobi_smooth(model: DiscretizedModel, v: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """``steps`` explicit heat steps of size ``dt``."""
    for _ in range(steps):
        v = v + dt * (model.L @ v)
    return v


def _smoothed(model: DiscretizedModel, v: np.ndarray, steps, cap: float, dt: float) -> list:
    """Capped copies of ``v`` after each of the ascending step counts
    ``steps``, taken from one running smoothing."""
    out, done = [], 0
    for s in steps:
        v, done = _jacobi_smooth(model, v, s - done, dt), s
        out.append(_cap_cones(v, cap))
    return out


def _feasible_value(model, cand: np.ndarray, x: int, y: int):
    g = model.edge_form.evaluate(model.mu, cand, cand)
    s = float(np.sqrt(max(g.max(), 1e-300)))
    f = cand / s
    return f[x] - f[y], f


@dataclass(frozen=True)
class DualCertificate:
    value: float                    # certified lower bound on d(x, y)
    feasibility: float              # max-node Gamma of the field (<= 1)


def _cap_cones(values: np.ndarray, eps: float) -> np.ndarray:
    """Flatten the tips of a distance-like field.

    Cone tips (at the source and at cut loci) carry a discrete Gamma spike
    of about twice the interior value; a parabolic cap keeps the slope
    bound while losing only eps/2 of range at each end.
    """
    if eps <= 0:
        return values
    v = values - values.min()
    cap = np.where(v < eps, 0.5 * eps + v**2 / (2 * eps), v)
    top = cap.max()
    w = top - cap
    cap = top - np.where(w < eps, 0.5 * eps + w**2 / (2 * eps), w)
    return cap


def dual_distance(model: DiscretizedModel, x: int, y: int,
                  budget: int = 30) -> DualCertificate:
    """Certified lower bound on d(x, y) via the Lipschitz dual.

    Maximizes f(x) - f(y) over fields with max-node Gamma(f) <= 1, starting
    from the graph distance to y after 0, 2, 8 and 32 smoothing steps.  Any
    feasible field certifies; budget exhaustion returns the best so far.
    """
    h = float(model.meta["h"])
    cap = 0.75 * h
    base = distance_field(model, None, y, method="graph").values
    # smoothing steps at half the diagonal CFL limit, which keeps them stable
    dt = 0.5 / float(-model.L.diagonal().min())
    candidates = _smoothed(model, base, (0, 2, 8, 32), cap, dt)
    if model.kind in ("euclidean", "torus", "heisenberg"):
        u = model.nodes[x] - model.nodes[y]
        if model.kind == "heisenberg":
            u = u.copy()
            u[2] = 0.0               # only horizontal coordinates are 1-Lipschitz
        nrm = np.linalg.norm(u)
        if nrm > 0:
            candidates.append(model.nodes @ (u / nrm))
    if model.kind == "sphere":
        ang = np.arccos(np.clip(model.nodes @ model.nodes[y], -1.0, 1.0))
        candidates += _smoothed(model, ang, (0, 2, 8), cap, dt)

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
    cur = best_f.copy()
    for _ in range(budget):
        trial = cur + step * direction
        val, f = _feasible_value(model, trial, x, y)
        if val > best_val:
            best_val, best_f, cur = val, f, f.copy()
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


def _flat_area(phi: float) -> float:
    """(2 phi - sin 2 phi) / (8 sin^2 phi), 0 < phi < pi: the segment area
    over a unit chord whose arc turns by 2 phi.  Evaluated as
    (phi / 6) S(2 phi) (phi / sin phi)^2, S(x) = 6 (x - sin x) / x^3, with S
    summed as its series for x < 1, so nothing cancels as phi -> 0."""
    x = 2 * phi
    shape = np.polyval(_SEGMENT_SERIES, x * x) if x < 1 else 6 * (x - np.sin(x)) / x**3
    return phi / 6 * shape * (phi / np.sin(phi)) ** 2


def _steep_segment(psi: float) -> float:
    """2 phi - sin 2 phi at phi = pi - psi: twice the area of the unit
    circle's segment whose arc turns by 2 phi."""
    return 2 * np.pi - 2 * psi + np.sin(2 * psi)


def subunit_distance_heisenberg(target) -> float:
    """Carnot-Caratheodory distance from the origin to ``target``: the
    length of the shortest subunit curve that reaches it.

    Horizontal curves x' = u, y' = v with u^2 + v^2 <= 1 lift by
    z' = (x v - y u)/2, so z is the signed area between the curve and its
    chord.  The shortest curve to (x, y, z) with r = |(x, y)| > 0 is a
    circular arc over the chord that turns by 2 phi, where

        (2 phi - sin 2 phi) / (8 sin^2 phi) = |z| / r^2,   0 <= phi < pi,

    and its length is r phi / sin phi; the vertical target (0, 0, z) is
    reached by a full circle of length 2 sqrt(pi |z|) (Gaveau, Acta Math.
    139 (1977); Beals, Gaveau & Greiner, J. Math. Pures Appl. 79 (2000)).
    The root is taken in phi up to pi/2 and in psi = pi - phi beyond, from
    scale-free ratios, so both ends keep full precision.
    """
    x, y, z = (float(c) for c in target)
    r, a = float(np.hypot(x, y)), abs(z)
    if r == 0.0:
        return float(2 * np.sqrt(np.pi * a))
    mu = (np.sqrt(a) / r) ** 2                # |z| / r^2
    if mu == 0.0:
        return r
    tiny = np.finfo(float).tiny               # brentq's rtol alone sets the precision
    if mu <= np.pi / 8:                       # phi <= pi/2, where mu / phi is in [1/6, 1/4]
        phi = optimize.brentq(lambda p: _flat_area(p) - mu,
                              3 * mu, min(7 * mu, 2.0), xtol=tiny)
        return float(r * phi / np.sin(phi))
    nu = (r / np.sqrt(a)) ** 2                # r^2 / |z|; psi / sqrt(nu) is in [0.88, 0.99]
    psi = optimize.brentq(lambda s: 8 * np.sin(s) ** 2 / _steep_segment(s) - nu,
                          0.5 * np.sqrt(nu), min(2 * np.sqrt(nu), 2.0), xtol=tiny)
    return float((np.pi - psi) * np.sqrt(8 * a / _steep_segment(psi)))


# ---------------------------------------------------------------------------
# balls and perimeters


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


def ball_table(model: DiscretizedModel, dist: DistanceField, radii) -> BallTable:
    """Volumes and perimeters of metric balls around the distance source."""
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly ascending")
    d = dist.values
    order = np.argsort(d)
    cum = np.cumsum(model.mu[order])
    pos = np.searchsorted(d[order], radii, side="right")
    volumes = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)

    perims = np.array([discrete_perimeter(model, d <= r) for r in radii])

    # coarea route: dV/dr by central differences; the shell must span a few
    # mesh cells or the staircase dominates
    h = float(model.meta["h"])
    co = np.empty_like(radii)
    for k, r in enumerate(radii):
        dr = max(0.05 * r, 1.5 * h)
        lo = float(model.mu[d <= r - dr].sum())
        hi = float(model.mu[d <= r + dr].sum())
        co[k] = (hi - lo) / (2 * dr)
    return BallTable(model.model_id, dist.source, radii, volumes, perims, co)


def volume_growth_exponent(table: BallTable) -> float:
    """Log-log slope of ball volume against radius."""
    good = table.volumes > 0
    return float(np.polyfit(np.log(table.radii[good]), np.log(table.volumes[good]), 1)[0])


def calibrate_anisotropy(model: DiscretizedModel, oracle: GeometryOracle,
                         n_pairs: int = 100, seed: int = 0) -> dict:
    """Graph-over-oracle distance ratios on random pairs at least 3 h apart
    (report metadata; only ``n_pairs: 0`` when no pair is)."""
    if oracle.exact_distance is None:
        raise ValueError("needs an oracle distance")
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_pairs):
        x, y = rng.integers(0, model.n_nodes, size=2)
        if x == y:
            continue
        ref = float(oracle.exact_distance(model.nodes[x], model.nodes[y]))
        if ref < 3 * model.meta["h"]:
            continue
        g = distance_field(model, oracle, y, method="graph").values[x]
        ratios.append(g / ref)
    if not ratios:
        return {"n_pairs": 0}
    ratios = np.array(ratios)
    return {"max_ratio": float(ratios.max()), "mean_ratio": float(ratios.mean()),
            "n_pairs": int(ratios.size)}
