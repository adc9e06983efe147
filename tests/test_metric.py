import math
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from heatlab import (
    ball_volumes,
    discrete_perimeter,
    dual_distance,
    graph_distance,
    node_nearest,
    subunit_distance_heisenberg,
    volume_growth_exponent,
)
from heatlab.checks import check_distance_sandwich
from heatlab.cli import sample_node_pairs
from heatlab.metric import _increasing_root, distance_field, oracle_distance
from heatlab.models import ModelSpec, build_model


@pytest.mark.parametrize("name", ["torus1", "euclid2", "sphere"])
def test_distance_field_is_the_closed_form_or_by_name_the_graph(request, name):
    model, oracle, _ = request.getfixturevalue(name)
    for s in (0, model.n_nodes // 3):
        exact = oracle.exact_distance(model.nodes[s], model.nodes)
        assert np.array_equal(distance_field(model, oracle, s).values, exact)
        graph = dijkstra(model.adjacency(), directed=True, indices=s)
        assert np.array_equal(distance_field(model, None, s).values, graph)


def test_distance_field_without_a_closed_form_is_the_graph(heis):
    # the Heisenberg oracle has no closed-form distance: both calls read one
    # memoized graph field
    model, oracle = heis
    assert oracle.exact_distance is None
    s = model.n_nodes // 2
    field = distance_field(model, oracle, s)
    assert distance_field(model, None, s) is field
    assert np.array_equal(field.values,
                          dijkstra(model.adjacency(), directed=True, indices=s))


def test_graph_distance_axis_pairs(euclid2):
    model, _, _ = euclid2
    h = model.meta["h"]
    i = node_nearest(model, [0.0, 0.0])
    d = graph_distance(model, i).values
    j = node_nearest(model, [5 * h + model.nodes[i][0], model.nodes[i][1]])
    assert d[j] == pytest.approx(5 * h, abs=1e-12)


def test_sphere_antipodal_distance(sphere):
    model, _, _ = sphere
    p = node_nearest(model, [0, 0, 1])
    q = node_nearest(model, [0, 0, -1])
    d = graph_distance(model, p).values
    assert d[q] == pytest.approx(np.pi, rel=1e-12)   # meridian path is exact


def test_distance_symmetry_and_triangle(sphere):
    model, _, _ = sphere
    rng = np.random.default_rng(0)
    nodes = rng.integers(0, model.n_nodes, size=6)
    fields = {n: graph_distance(model, int(n)).values for n in nodes}
    for a in nodes:
        for b in nodes:
            assert fields[a][b] == pytest.approx(fields[b][a], abs=1e-10)
            for c in nodes:
                assert fields[a][c] <= fields[a][b] + fields[b][c] + 1e-10


def test_dual_euclidean_linear_certificate(euclid2):
    model, oracle, _ = euclid2
    a = node_nearest(model, [0.53, 0.21])
    b = node_nearest(model, [-0.8, -0.37])
    cert = dual_distance(model, oracle, a, b)
    ref = oracle.exact_distance(model.nodes[a], model.nodes[b])
    assert cert.feasibility <= 1 + 1e-9
    assert cert.value == pytest.approx(ref, rel=1e-6)


def test_dual_sphere_angle(sphere):
    model, oracle, _ = sphere
    pole = node_nearest(model, [0, 0, 1])
    x = node_nearest(model, [1, 0, 0])
    cert = dual_distance(model, oracle, x, pole)
    assert cert.value >= 0.95 * (np.pi / 2)
    assert cert.feasibility <= 1 + 1e-9


def test_dual_graph_sandwich(torus1, euclid2, sphere, heis):
    for model, oracle, *_ in (torus1, euclid2, sphere, heis):
        h = model.meta["h"]
        rng = np.random.default_rng(1)
        for _ in range(6):
            x, y = rng.integers(0, model.n_nodes, size=2)
            if x == y:
                continue
            g = graph_distance(model, int(y)).values[x]
            cert = dual_distance(model, oracle, int(x), int(y))
            assert cert.feasibility <= 1 + 1e-9
            assert cert.value <= g + 2 * h + 0.02 * g


def test_dual_starts_from_the_oracle_field(torus1, euclid2, sphere, monkeypatch):
    # where the oracle has a closed-form distance, the dual needs no Dijkstra
    def no_graph(*args):
        raise AssertionError("graph_distance called")

    monkeypatch.setattr("heatlab.metric.graph_distance", no_graph)
    for model, oracle, _ in (torus1, euclid2, sphere):
        model.derived.pop("_distance", None)
        x, y = 3, model.n_nodes // 2
        cert = dual_distance(model, oracle, x, y)
        assert 0 < cert.value and cert.feasibility <= 1 + 1e-9


def test_subunit_straight_line():
    length = subunit_distance_heisenberg([0.3, 0.0, 0.0])
    assert length == pytest.approx(0.3, rel=1e-3)


def test_subunit_vertical_against_arc_family_scan():
    # independent oracle: enumerate constant-turning-rate controls
    # u = cos(w t), v = sin(w t), whose endpoint is closed form:
    #   x(T) = sin(w T)/w,  y(T) = (1 - cos(w T))/w,
    #   z(T) = (T - sin(w T)/w) / (2 w).
    # Scan (w, T) for the shortest curve reaching (0, 0, z).
    z = 0.04
    best = np.inf
    for w in np.linspace(0.5, 40.0, 8000):
        for k in (1, 2, 3):                  # horizontal closure: w T = 2 pi k
            T = 2 * np.pi * k / w
            z_end = (T - np.sin(w * T) / w) / (2 * w)
            if abs(z_end - z) < 2e-4 and T < best:
                best = T
    assert np.isfinite(best)
    assert best == pytest.approx(2 * np.sqrt(np.pi * z), rel=0.01)
    length = subunit_distance_heisenberg([0.0, 0.0, z])
    assert length == pytest.approx(best, rel=0.02)
    assert length >= best * (1 - 5e-3)  # cannot beat the extremal family


def _arc_endpoints(targets, lengths, steps=2000):
    """Integrate, by RK4, the unit-speed horizontal arc that the closed form
    names for each target: length d, chord r, turning by 2 phi with
    sin(phi) / phi = r / d, to the left when z > 0."""
    targets = np.asarray(targets, dtype=float)
    r = np.hypot(targets[:, 0], targets[:, 1])
    lo, hi = np.zeros(len(r)), np.full(len(r), np.pi)
    for _ in range(200):                      # bisection: sinc falls on [0, pi]
        mid = 0.5 * (lo + hi)
        above = np.sinc(mid / np.pi) > r / lengths
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    turn = np.sign(targets[:, 2]) * 0.5 * (lo + hi)
    start = np.arctan2(targets[:, 1], targets[:, 0]) - turn
    rate = 2 * turn / lengths

    def rhs(t, q):
        th = start + rate * t
        u, v = np.cos(th), np.sin(th)
        return np.stack([u, v, 0.5 * (q[0] * v - q[1] * u)])

    q, dt = np.zeros((3, len(r))), lengths / steps
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, q)
        k2 = rhs(t + dt / 2, q + dt / 2 * k1)
        k3 = rhs(t + dt / 2, q + dt / 2 * k2)
        k4 = rhs(t + dt, q + dt * k3)
        q = q + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return q.T


def test_subunit_closed_form_is_attained():
    # the arc of length d reaches the target, so d is a subunit length
    targets = [(0.2, -0.1, 0.05), (0.3, 0.1, -0.02), (0.05, 0.05, 0.08),
               (-0.1, 0.3, -0.1), (0.4, 0.0, 0.01), (0.3, -0.4, 1e-6),
               (1e-4, 0.0, 0.09), (0.0, 0.0, 0.04), (0.0, 0.0, -0.3),
               (0.3, 0.0, 0.0), (0.6, 0.8, 0.5 * np.pi / 8)]
    lengths = np.array([subunit_distance_heisenberg(q) for q in targets])
    ends = _arc_endpoints(targets, lengths)
    assert np.abs(ends - np.asarray(targets)).max() < 1e-6


def test_subunit_closed_form_homogeneous_and_symmetric():
    rng = np.random.default_rng(3)
    for q in rng.uniform(-1, 1, (40, 3)) * [1, 1, 0.5]:
        d = subunit_distance_heisenberg(q)
        assert subunit_distance_heisenberg(-q) == d          # d(q^-1) = d(q)
        for lam in (1e-3, 0.37, 5.0, 1e4):
            scaled = subunit_distance_heisenberg([lam * q[0], lam * q[1], lam**2 * q[2]])
            assert abs(scaled - lam * d) <= 1e-13 * lam * d
        assert d >= np.hypot(q[0], q[1])


def test_subunit_closed_form_on_the_axes():
    for z in (0.04, 0.09, -0.3, 2.5, 1e-300):
        assert subunit_distance_heisenberg([0.0, 0.0, z]) == 2 * np.sqrt(np.pi * abs(z))
    for x, y in ((0.3, 0.0), (0.0, -2.0), (0.6, 0.8), (1e-200, 3e-200)):
        assert subunit_distance_heisenberg([x, y, 0.0]) == np.hypot(x, y)


def test_subunit_closed_form_near_the_vertical_axis():
    # d(r, 0, z) and d(0, 0, z) differ by at most d((0, 0, z), (r, 0, z)) = r;
    # the two computed values may each sit one rounding from the exact ones
    for z in (0.04, -0.3):
        ref = 2 * np.sqrt(np.pi * abs(z))
        for r in 10.0 ** -np.arange(3, 13):
            d = subunit_distance_heisenberg([r, 0.0, z])
            assert abs(d - ref) <= r + 2 * np.spacing(ref)
            assert d >= r


def test_subunit_closed_form_flat_limit():
    # d / r = 1 + 6 (|z| / r^2)^2 + ... as the target flattens
    for r in (1.0, 1e-3, 7.3):
        for ratio in (1e-12, 1e-300, 0.0):
            d = subunit_distance_heisenberg([0.6 * r, -0.8 * r, ratio * r * r])
            assert d >= r and d == pytest.approx(r, rel=1e-15)
        d = subunit_distance_heisenberg([r, 0.0, 1e-4 * r * r])
        assert d / r - 1 == pytest.approx(6e-8, rel=1e-6)
        # both roots agree where they meet, at phi = pi/2 (d = r pi / 2)
        for side in (1 - 1e-15, 1.0, 1 + 1e-15):
            d = subunit_distance_heisenberg([r, 0.0, side * np.pi / 8 * r * r])
            assert d == pytest.approx(r * np.pi / 2, rel=1e-14)


def test_subunit_rows_equal_per_row_calls():
    # flat and steep roots, both axes, the branch seam and a flat target
    rng = np.random.default_rng(11)
    rows = rng.choice([-1.0, 1.0], (200, 3)) * 10.0 ** rng.uniform(-6, 3, (200, 3))
    rows = np.vstack([rows, [[0.0, 0.0, 0.04], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0],
                             [1.0, 0.0, np.pi / 8], [1e-12, 0.0, -0.3]]])
    d = subunit_distance_heisenberg(rows)
    assert d.shape == (len(rows),)
    single = [subunit_distance_heisenberg(q) for q in rows]
    assert all(type(v) is float for v in single)
    assert np.array_equal(d, single)
    assert subunit_distance_heisenberg(np.empty((0, 3))).shape == (0,)


def test_subunit_extreme_ratio_does_not_warn():
    # |z| / r^2 overflows to inf here; the steep branch still returns the
    # full circle's length 2 sqrt(pi |z|), and no warning escapes
    target = [1e-160, 0.0, 1e300]
    ref = 2 * np.sqrt(np.pi * 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert subunit_distance_heisenberg(target) == pytest.approx(ref, rel=1e-15)
        rows = subunit_distance_heisenberg(np.array([target, [0.3, 0.0, 0.01]]))
    assert rows[0] == pytest.approx(ref, rel=1e-15)
    assert rows[1] == subunit_distance_heisenberg([0.3, 0.0, 0.01])


@pytest.mark.parametrize("target, length", [
    ((0.0, 0.0, 0.04), "0.708981540362206"),
    ((0.0, 0.0, 0.09), "1.063472310543310"),
    ((0.3, 0.0, 0.0), "0.300000000000000"),
    ((0.2, -0.1, 0.05), "0.599966057574853"),
    ((0.3, 0.1, -0.02), "0.379806317336132"),
    ((0.05, 0.05, 0.08), "0.932522781913579"),
    ((0.4, 0.0, 0.01), "0.409183734968865"),
    ((-0.1, 0.3, -0.1), "0.848480135585874"),
    ((0.25, 0.25, 0.2), "1.261944233298115"),
])
def test_subunit_reproduces_recorded_closed_form(target, length):
    # the closed-form column recorded when the closed form replaced shooting
    assert f"{subunit_distance_heisenberg(target):.15f}" == length


def test_subunit_root_needs_a_bracket():
    one = np.ones(1)
    with pytest.raises(ValueError, match="straddle"):
        _increasing_root(lambda t: t, 5 * one, 0 * one, one)
    with pytest.raises(ValueError, match="straddle"):
        _increasing_root(lambda t: t, -one, 0 * one, one)
    # a root at 0 has no relative tolerance, so the bracket never closes
    with pytest.raises(ValueError, match="did not close"):
        _increasing_root(lambda t: t, 0 * one, -one, one)


def test_heisenberg_graph_distance_bounds_carnot_caratheodory(heis):
    # every edge is an exact unit-speed flow of X or Y over time h, so a
    # lattice path is a horizontal curve: graph(p, q) >= d_CC(p^-1 q) with
    # no lattice error.  p^-1 q = (dx, dy, dz - (x_p y_q - y_p x_q) / 2)
    model = heis[0]
    rng = np.random.default_rng(4)
    X = model.nodes
    for src in rng.integers(0, model.n_nodes, size=8):
        tgt = rng.integers(0, model.n_nodes, size=200)
        p, q = X[src], X[tgt]
        rel = q - p
        rel[:, 2] -= (p[0] * q[:, 1] - p[1] * q[:, 0]) / 2
        cc = subunit_distance_heisenberg(rel)
        graph = graph_distance(model, int(src)).values[tgt]
        assert np.all(graph >= cc * (1 - 1e-12))


@pytest.mark.parametrize("name", ["euclid2", "sphere", "torus1", "heis"])
def test_dijkstra_as_directed_on_the_symmetric_adjacency(name, request):
    model = request.getfixturevalue(name)[0]
    adj = model.adjacency()
    assert (adj != adj.T).nnz == 0
    for src in np.random.default_rng(2).integers(0, model.n_nodes, size=3):
        ref = dijkstra(adj, directed=False, indices=int(src))
        assert np.array_equal(graph_distance(model, int(src)).values, ref)
    if name in ("euclid2", "heis"):
        ref = dijkstra(adj, directed=False, indices=np.flatnonzero(model.boundary_mask),
                       min_only=True)
        assert np.array_equal(model.metric_distance_to_boundary(), ref)


def _closed_form_row(kind, x, y, period=None):
    # per-pair reference in plain Python arithmetic
    if kind == "sphere":
        c = sum(a * b for a, b in zip(x, y))
        cross = (y[1] * x[2] - y[2] * x[1], y[2] * x[0] - y[0] * x[2],
                 y[0] * x[1] - y[1] * x[0])
        return math.atan2(math.sqrt(sum(t * t for t in cross)), c)
    d = [abs(a - b) for a, b in zip(x, y)]
    if kind == "torus":
        d = [min(t, period - t) for t in d]
    return math.sqrt(sum(t * t for t in d))


@pytest.mark.parametrize("spec", [
    ModelSpec("euclidean", dim=3, resolution=8),
    ModelSpec("torus", dim=2, resolution=12),
    ModelSpec("sphere", dim=2, resolution=16),
], ids=lambda s: s.kind)
def test_oracle_distance_broadcasts_over_nodes(spec):
    model, oracle = build_model(spec)
    period = model.meta.get("period")
    rng = np.random.default_rng(0)
    for src in rng.integers(0, model.n_nodes, size=4):
        x = model.nodes[src]
        vals = oracle_distance(model, oracle, int(src)).values
        ref = np.array([_closed_form_row(spec.kind, x, y, period) for y in model.nodes])
        assert vals.shape == (model.n_nodes,)
        assert np.abs(vals - ref).max() <= 1e-14
        y = model.nodes[(src + 1) % model.n_nodes]
        single = oracle.exact_distance(x, y)
        assert np.ndim(single) == 0
        assert float(single) == pytest.approx(_closed_form_row(spec.kind, x, y, period),
                                              abs=1e-14)


def test_sphere_oracle_clips_identical_and_antipodal_points(sphere):
    _, oracle, _ = sphere
    x = np.ones(3) / np.sqrt(3.0)
    assert x @ x > 1.0                       # arccos alone would return nan
    assert float(oracle.exact_distance(x, x)) == 0.0
    assert float(oracle.exact_distance(x, -x)) == np.pi
    both = oracle.exact_distance(x, np.stack([x, -x]))
    assert both.tolist() == [0.0, np.pi]


def test_sphere_oracle_exact_at_both_ends(sphere):
    model, oracle, _ = sphere
    X = model.nodes
    self_dist = np.array([oracle.exact_distance(x, x) for x in X])
    assert np.all(self_dist == 0.0)
    row = np.array([oracle.exact_distance(X[i], X)[i] for i in range(X.shape[0])])
    assert np.all(row == 0.0)
    # the latitude grid holds the antipode of every node
    anti = np.array([int(np.argmin(np.sum((X + x) ** 2, axis=1))) for x in X])
    assert np.abs(X[anti] + X).max() < 1e-15
    far = np.array([oracle.exact_distance(x, X[j]) for x, j in zip(X, anti)])
    assert np.abs(far - np.pi).max() <= 1e-15


def test_subunit_dual_sandwich(heis):
    model, oracle = heis
    i0 = node_nearest(model, [0, 0, 0])
    target = node_nearest(model, [0.0, 0.0, 0.0625])
    cert = dual_distance(model, oracle, target, i0)
    up = subunit_distance_heisenberg(model.nodes[target])
    assert cert.value <= up * 1.02 + 2 * model.meta["h"]


def test_heisenberg_graph_distance_vertical(heis):
    model = heis[0]
    i0 = node_nearest(model, [0, 0, 0])
    d = graph_distance(model, i0).values
    target = node_nearest(model, [0.0, 0.0, 0.0625])
    cc = 2 * np.sqrt(np.pi * 0.0625)
    assert d[target] >= cc * (1 - 1e-9)          # graph overestimates
    assert d[target] <= cc * 1.15                # taxicab anisotropy bound


def test_ball_tables_disk(euclid2):
    model, oracle, _ = euclid2
    i0 = node_nearest(model, [0, 0])
    d = oracle_distance(model, oracle, i0).values
    radii = np.array([0.3, 0.45, 0.6])
    vols = ball_volumes(model, d, radii)
    np.testing.assert_allclose(vols, [model.mu[d <= r].sum() for r in radii],
                               rtol=1e-13)
    exact = np.pi * radii**2
    assert np.all(np.abs(vols - exact) / exact < 0.06)
    with pytest.raises(ValueError):
        ball_volumes(model, d, [0.3, 0.3])


def test_cap_volumes(sphere):
    # radii between latitude rows count whole cell rows without bias
    model, oracle, _ = sphere
    pole = node_nearest(model, [0, 0, 1])
    h = model.meta["h"]
    radii = (np.array([5, 10, 20]) + 0.5) * h
    vols = ball_volumes(model, graph_distance(model, pole).values, radii)
    exact = 2 * np.pi * (1 - np.cos(radii))
    assert np.all(np.abs(vols - exact) / exact < 0.01)


def test_square_perimeter(euclid2):
    model, _, _ = euclid2
    mask = np.all(np.abs(model.nodes) <= 0.5, axis=1)
    side = np.sqrt(mask.sum()) * model.meta["h"]
    p = discrete_perimeter(model, mask)
    assert p == pytest.approx(4 * side, rel=0.01)


def test_heisenberg_growth_exponent():
    model, _ = build_model(ModelSpec("heisenberg", dim=3, resolution=49,
                                        extent=1.3, options={"z_extent": 0.16}))
    i0 = node_nearest(model, [0, 0, 0])
    d = graph_distance(model, i0)
    h = model.meta["h"]
    radii = (np.arange(3, 21) + 0.49) * h
    slope = volume_growth_exponent(radii, ball_volumes(model, d.values, radii))
    assert 3.6 <= slope <= 4.2


def test_anisotropy_calibration_without_distant_pairs():
    # on an 8-node circle only antipodal pairs lie 3 h apart; these 4 are not
    model, oracle = build_model(ModelSpec("torus", dim=1, resolution=8))
    rep = check_distance_sandwich(model, oracle, [(0, 1), (2, 4), (5, 3), (7, 6)])
    assert rep.metadata["anisotropy"] == {"n_pairs": 0}


def test_anisotropy_calibration(sphere):
    # the sandwich's own rows: graph over oracle on the pairs 3 h apart
    model, oracle, _ = sphere
    pairs = sample_node_pairs(model, 40, np.random.default_rng(2))
    rep = check_distance_sandwich(model, oracle, pairs)
    cal = rep.metadata["anisotropy"]
    ratios = [s["rhs"] / s["oracle"] for s in rep.samples
              if s["oracle"] >= 3 * model.meta["h"]]
    assert cal == {"n_pairs": len(ratios), "max_ratio": max(ratios),
                   "mean_ratio": pytest.approx(np.mean(ratios), rel=1e-15)}
    assert 1.0 <= cal["mean_ratio"] < 1.3
    assert cal["max_ratio"] < 1.5
