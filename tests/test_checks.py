import collections

import numpy as np
import pytest
from scipy.integrate import quad

from heatlab import (
    ModelSpec,
    NotApplicableError,
    build_model,
    checks,
    metric,
    neumann_restrict,
    node_nearest,
)
from heatlab.checks import (
    check_ball_poincare,
    check_cd,
    check_completeness,
    check_diameter,
    check_distance_sandwich,
    check_equilibrium_rate,
    check_gradient_bound,
    check_harnack,
    check_isoperimetric_balls,
    check_kernel_bounds,
    check_kernel_laws,
    check_li_yau,
    check_log_sobolev,
    check_neumann_poincare,
    check_sobolev_embedding,
    check_sobolev_sharp,
    check_spectral_gap,
    check_spectrum,
    check_subunit_oracle,
    check_vertical_commutation,
    check_volume_regularity,
    diameter_bound,
    harnack_dimension,
    poincare_margin,
    sharp_sobolev_sides,
    span_cd_margin,
)
from heatlab.cli import sample_harnack_pairs, sample_node_pairs
from heatlab.fields import EdgeForm, cd_forms, deep_interior, gamma2_z, gamma_z
from heatlab.reports import Tolerance
from heatlab.suites import (
    NamedField,
    bump_fields,
    eigen_fields,
    horizontal_bump_fields,
    latitude_profiles,
    positive_fields,
)


def test_cd_sphere(sphere):
    model, oracle, spectral = sphere
    suite = eigen_fields(model, spectral, seed=0)
    rep = check_cd(model, oracle, suite, mode="riemannian")
    assert rep.passed
    assert rep.min_margin > -0.02 * rep.scale


def test_cd_margins_do_not_depend_on_suite_order(sphere):
    # the gradient-of-Gamma rows are read in units of the report's scale,
    # which every field enters, not of the fields checked before them
    model, oracle, spectral = sphere
    suite = eigen_fields(model, spectral, seed=0)
    a, b = (check_cd(model, oracle, s) for s in (suite, suite[::-1]))
    assert {s["field"]: s["margin"] for s in a.samples} == \
        {s["field"]: s["margin"] for s in b.samples}


def test_span_cd_margin_ignores_the_basis(sphere):
    model, oracle, spectral = sphere
    span = spectral.eigenfields[:, 1:10]
    O, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((9, 9)))
    a = span_cd_margin(model, oracle, span)
    assert a < 0
    assert span_cd_margin(model, oracle, span @ O) == pytest.approx(a, rel=1e-10)


def test_span_cd_margin_matches_check_cd(sphere):
    model, oracle, spectral = sphere
    # one column: the check_cd relative margin of that field (its first row;
    # the second is the gradient-of-Gamma lemma's)
    v = spectral.eigenfields[:, 5]
    rep = check_cd(model, oracle, [NamedField("v", model.field(v))], mode="riemannian")
    assert rep.samples[0]["field"] == "v"
    assert span_cd_margin(model, oracle, v[:, None]) == pytest.approx(
        rep.samples[0]["margin"] / rep.scale, rel=1e-12)
    # two columns: forms maximized and minimized by brute force over angles
    span = spectral.eigenfields[:, [2, 5]]
    idx = np.flatnonzero(deep_interior(model))
    rho, n = oracle.ricci_lower, float(oracle.dim)
    marg, g2max, lsq = [], [], []
    for t in np.linspace(0, np.pi, 721):
        g, g2, lf2 = cd_forms(model, model.field(span @ [np.cos(t), np.sin(t)]))
        marg.append((g2 - lf2 / n - rho * g)[idx].min())
        g2max.append(np.abs(g2[idx]).max())
        lsq.append(lf2[idx].max())
    brute = min(marg) / (max(g2max) + max(lsq) / n)
    assert span_cd_margin(model, oracle, span) == pytest.approx(brute, rel=1e-4)


def test_cd_euclid_equality(euclid2):
    model, oracle, _ = euclid2
    f = model.field(0.5 * np.sum(model.nodes**2, axis=1))
    rep = check_cd(model, oracle, [NamedField("half-square-norm", f)],
                   mode="riemannian", equality_fields=("half-square-norm",),
                   tolerance=Tolerance(1e-9, 1e-9))
    assert rep.passed
    eq = [s for s in rep.samples if s["field"].endswith("|equality")][0]
    assert eq["lhs"] < 1e-9   # the margin vanishes identically


def test_cd_heisenberg_scan_and_reproducibility(heis):
    model, oracle = heis
    from heatlab.suites import sub_riemannian_suite

    vals = []
    for seed in (5, 77):
        suite = sub_riemannian_suite(model, seed=seed)
        rep = check_cd(model, oracle, suite,
                       mode="scan", nu_grid=np.geomspace(0.25, 64, 10))
        assert rep.passed
        vals.append(rep.metadata["rho1_scan"])
        assert vals[-1] > -0.02
    assert abs(vals[0] - vals[1]) <= 0.01 * max(1.0, abs(vals[0]))


def test_cd_generalized_margins(heis):
    model, oracle = heis
    from heatlab.suites import sub_riemannian_suite

    suite = sub_riemannian_suite(model, seed=5)
    rep = check_cd(model, oracle, suite, mode="generalized",
                   nu_grid=[0.5, 1.0, 2.0, 8.0])
    assert rep.passed
    # the vertical coordinate saturates the inequality on the axis
    zmargins = [s["margin"] for s in rep.samples if s["field"] == "coord-2"]
    assert min(zmargins) == pytest.approx(0.0, abs=1e-10)


def test_cd_mode_errors(sphere):
    model, oracle, spectral = sphere
    suite = eigen_fields(model, spectral)[:1]
    with pytest.raises(NotApplicableError):
        check_cd(model, oracle, suite, mode="generalized")
    with pytest.raises(ValueError):
        check_cd(model, oracle, suite, mode="nonsense")


@pytest.mark.parametrize("call", [
    lambda model, oracle, suite: gamma_z(model, suite[0].field),
    lambda model, oracle, suite: gamma2_z(model, suite[0].field),
    lambda model, oracle, suite: check_cd(model, oracle, suite, mode="generalized"),
    lambda model, oracle, suite: check_cd(model, oracle, suite, mode="scan"),
    lambda model, oracle, suite: check_vertical_commutation(model, suite),
    lambda model, oracle, suite: check_li_yau(model, oracle, None, suite,
                                              mode="sub-riemannian", alpha=3.0),
], ids=["gamma_z", "gamma2_z", "cd-generalized", "cd-scan", "vertical-commutation",
        "li-yau-sub-riemannian"])
def test_vertical_forms_need_vertical_edges(heis, call):
    # a Neumann restriction of heis keeps its oracle's CD parameters but
    # not its vertical edges, so only the missing vertical form can refuse
    model, oracle = heis
    assert model.vertical_form.n_edges > 0
    sub = neumann_restrict(model, np.all(np.abs(model.nodes[:, :2]) <= 0.8, axis=1))
    assert sub.vertical_form is None
    with pytest.raises(NotApplicableError, match="vertical"):
        call(sub, oracle, [NamedField("x", sub.field(sub.nodes[:, 0]))])


def _count_calls(monkeypatch, *names):
    """Count the calls that ``heatlab.checks`` makes to each of its imports
    ``names``."""
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper
    for name in names:
        monkeypatch.setattr(checks, name, counted(name, getattr(checks, name)))
    return calls


def test_cd_evaluates_each_form_once_per_field(monkeypatch, sphere, heis):
    # counts the EdgeForm.evaluate calls of each form: cd_forms makes one for
    # Gamma f and one for Gamma(f, Lf), the gradient-of-Gamma lemma one more;
    # gamma2_z makes one for Gamma^Z f and one for Gamma^Z(f, Lf)
    from heatlab.suites import sub_riemannian_fields

    model, oracle, spectral = sphere
    hmodel, horacle = heis
    assert model.L.nnz and hmodel.L.nnz     # assembled, with their self tests, first
    calls = collections.Counter()
    real = EdgeForm.evaluate

    def evaluate(self, mu, f, g):
        calls["vertical" if self is hmodel.vertical_form else "horizontal"] += 1
        return real(self, mu, f, g)
    monkeypatch.setattr(EdgeForm, "evaluate", evaluate)

    suite = eigen_fields(model, spectral, seed=0)
    check_cd(model, oracle, suite, mode="riemannian")
    assert calls == {"horizontal": 3 * len(suite)}

    calls.clear()
    hsuite = sub_riemannian_fields(hmodel)
    check_cd(hmodel, horacle, hsuite, mode="generalized",
             nu_grid=[0.5, 1.0, 2.0, 8.0])
    assert calls == {"horizontal": 2 * len(hsuite), "vertical": 2 * len(hsuite)}
    calls.clear()
    check_cd(hmodel, horacle, hsuite, mode="scan", nu_grid=[0.5, 1.0, 2.0, 8.0])
    assert calls == {"horizontal": 2 * len(hsuite), "vertical": 2 * len(hsuite)}


def test_vertical_commutation(heis):
    model, _ = heis
    x, z = model.nodes[:, 0], model.nodes[:, 2]
    suite = [NamedField("xz", model.field(x * z))]
    suite += horizontal_bump_fields(model, widths=(0.5,))
    rep = check_vertical_commutation(model, suite)
    assert rep.passed
    assert -rep.samples[0]["margin"] < 0.01    # xz residual is tiny


def test_gradient_bound(sphere, euclid2):
    model, oracle, spectral = sphere
    suite = eigen_fields(model, spectral, n_single=2, n_combo=1)
    rep = check_gradient_bound(model, oracle, suite, [0.0, 0.1, 0.5, 1.0])
    assert rep.passed
    t0 = [s for s in rep.samples if s["t"] == 0.0]
    assert all(abs(s["margin"]) < 1e-9 * rep.scale for s in t0)

    emodel, eoracle, _ = euclid2
    esuite = [NamedField("coord-0", emodel.field(emodel.nodes[:, 0]))]
    erep = check_gradient_bound(emodel, eoracle, esuite, [0.05])
    assert erep.passed
    # translation-invariant gradient: both sides equal one
    s = erep.samples[-1]
    assert s["lhs"] == pytest.approx(1.0, abs=0.01)
    assert s["rhs"] == pytest.approx(1.0, abs=0.01)


def test_completeness(sphere, torus1):
    for model, _, _ in (sphere, torus1):
        rep = check_completeness(model, [0.5, 2.0])
        assert rep.passed and rep.min_margin > -1e-10


def test_spectral_gap_poincare(sphere):
    model, oracle, spectral = sphere
    rep = check_spectral_gap(model, oracle, spectral)
    assert rep.passed
    assert rep.metadata["lambda1"] == pytest.approx(2.0, rel=0.02)
    # extremal eigenfunction saturates the Poincare inequality
    phi1 = model.field(spectral.eigenfields[:, 1])
    sat = poincare_margin(model, phi1, 0.5) / model.inner(phi1, phi1)
    assert abs(sat) < 0.01


def test_spectral_gap_needs_positive_curvature(euclid2):
    model, oracle, spectral = euclid2
    with pytest.raises(NotApplicableError):
        check_spectral_gap(model, oracle, spectral)


def test_log_sobolev(sphere):
    model, oracle, spectral = sphere
    suite = positive_fields(model, spectral)
    rep = check_log_sobolev(model, oracle, suite)
    assert rep.passed
    assert rep.metadata["entropy_slope"] <= -2.0 + 0.05
    assert rep.metadata["constant"] == 2.0


def test_li_yau_flat_sharp(euclid2):
    model, oracle, spectral = euclid2
    i0 = node_nearest(model, [0.0, 0.0])
    delta = np.zeros(model.n_nodes)
    delta[i0] = 1.0 / model.mu[i0]
    suite = [NamedField("point-source", model.field(delta))]
    suite += bump_fields(model, centers=[i0], width=0.25)
    rep = check_li_yau(model, oracle, suite, [0.05, 0.1], mode="rho0",
                       saturation_fields=("point-source",), saturation_rtol=0.01)
    assert rep.passed
    sat = [s for s in rep.samples if s["field"].endswith("|saturation")][0]
    assert sat["lhs"] <= sat["rhs"]


def test_li_yau_modes_sphere(sphere):
    model, oracle, spectral = sphere
    suite = positive_fields(model, spectral)[:3]
    for mode, grid, kw in (
        ("general-alpha", [0.25, 0.5, 1.0], {"alpha": 1.0}),
        ("bakry-qian", [2.0, 3.0], {}),
        ("exponential", [0.3, 0.6], {}),
    ):
        rep = check_li_yau(model, oracle, suite, grid, mode=mode, **kw)
        assert rep.passed, mode


def test_exponential_schedule_coefficients():
    # quadrature of the decaying weight reproduces the closed coefficients
    rho, n = 1.0, 2.0
    for T in (0.3, 0.6, 1.1):
        B = np.exp(-2 * rho * T / 3)

        def V(t):
            return np.exp(-rho * t / 3) * (np.exp(-2 * rho * t / 3) - B) / (1 - B)

        def dV(t, h=1e-6):
            return (V(t + h) - V(t - h)) / (2 * h)

        i2 = quad(lambda t: V(t) ** 2, 0, T)[0]
        i2p = quad(lambda t: dV(t) ** 2, 0, T)[0]
        assert 1 - 2 * rho * i2 == pytest.approx(B, abs=1e-9)
        assert 0.5 * n * (i2p + rho**2 * i2 - rho) == pytest.approx(
            (n * rho / 3) * B**2 / (1 - B), abs=1e-7)


def test_li_yau_errors(euclid2, sphere):
    model, oracle, spectral = euclid2
    suite = bump_fields(model, seed=0)
    with pytest.raises(NotApplicableError):
        check_li_yau(model, oracle, suite, [1.0], mode="bakry-qian")
    smodel, soracle, sspectral = sphere
    with pytest.raises(NotApplicableError, match="^t_grid: bakry-qian mode needs t >= "
                       "2/rho = 2, got 0.5$"):
        check_li_yau(smodel, soracle, positive_fields(smodel, sspectral)[:1], [0.5],
                     mode="bakry-qian")   # t < 2/rho


def test_li_yau_sub_riemannian(heis):
    model, oracle = heis
    suite = horizontal_bump_fields(model, widths=(0.5,))
    rep = check_li_yau(model, oracle, suite, [0.02, 0.05],
                       mode="sub-riemannian", alpha=3.0)
    assert rep.passed


def test_harnack_dimension_arithmetic():
    assert harnack_dimension(3.0, 0.0, 0.5, 2.0) == pytest.approx(2.0)  # D_3 = n
    assert harnack_dimension(3.0, 1.0, 0.5, 2.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        harnack_dimension(2.0, 0.0, 0.5, 2.0)


def test_harnack_flat_saturation(euclid2):
    model, oracle, spectral = euclid2
    i0 = node_nearest(model, [0.0, 0.0])
    delta = np.zeros(model.n_nodes)
    delta[i0] = 1.0 / model.mu[i0]
    rep = check_harnack(model, oracle, [NamedField("point-source", model.field(delta))],
                        [(i0, 0.05, i0, 0.1)])
    assert rep.passed
    assert abs(rep.samples[0]["margin"]) < 0.02   # matched scaling, near equality


def test_harnack_pairs_and_errors(sphere):
    model, oracle, spectral = sphere
    pairs = sample_harnack_pairs(model, 50, [0.1, 0.2], [0.1, 0.3], seed=1)
    suite = bump_fields(model, seed=1)
    rep = check_harnack(model, oracle, suite, pairs)
    assert rep.passed
    with pytest.raises(ValueError):
        check_harnack(model, oracle, suite, [(0, 0.2, 1, 0.1)])


def test_harnack_evaluates_each_oracle_field_once(monkeypatch):
    # a fresh model: the session fixtures' distance memos are already filled
    model, oracle = build_model(
        ModelSpec("euclidean", dim=2, resolution=16, extent=1.5))
    a, b, c, y1, y2 = (node_nearest(model, p) for p in
                       ([0.1, 0.2], [-0.3, 0.0], [0.2, -0.2], [0.0, 0.0], [0.3, 0.3]))
    pairs = [(x, 0.05, y, 0.1) for x, y in
             ((a, y1), (b, y1), (c, y2), (a, y2), (c, y1))]
    calls = collections.Counter()
    real = metric.oracle_distance

    def counted(model, oracle, source):
        calls[int(source)] += 1
        return real(model, oracle, source)
    monkeypatch.setattr(metric, "oracle_distance", counted)
    suite = bump_fields(model, seed=0)
    first = check_harnack(model, oracle, suite, pairs)
    assert calls == {y1: 1, y2: 1}
    # a second check on the same model reuses the fields
    again = check_harnack(model, oracle, suite, pairs)
    assert calls == {y1: 1, y2: 1}
    assert again.samples == first.samples


def test_kernel_bounds_flat(euclid2):
    model, oracle, spectral = euclid2
    i0 = node_nearest(model, [0, 0])
    near = [node_nearest(model, [0.2, 0.1]), node_nearest(model, [-0.15, 0.2])]
    pairs = [(i0, near[0], 0.05), (i0, near[1], 0.1)]
    rep = check_kernel_bounds(model, oracle, spectral, pair_sample=pairs, centers=[i0],
                              radii=[0.3, 0.4, 0.5, 0.6],
                              equality_expected=True)
    assert rep.passed
    assert rep.metadata["ondiag_upper_C"] == pytest.approx(0.25, rel=0.05)
    assert rep.metadata["ondiag_lower_K"] == pytest.approx(0.125, rel=0.05)
    assert rep.metadata["ball_mass_K"] > 0


def test_kernel_bounds_evaluates_each_kernel_once(monkeypatch, euclid2):
    # parts (a) and (c) share each pair's kernel; part (b) reads p(x, x, r^2)
    # and p(x, x, 2 r^2) per (centre, radius)
    calls = _count_calls(monkeypatch, "heat_kernel_block")
    model, oracle, spectral = euclid2
    i0, i1 = node_nearest(model, [0, 0]), node_nearest(model, [0.1, -0.1])
    pairs = [(i0, node_nearest(model, [0.2, 0.1]), 0.05), (i1, i0, 0.1),
             (i1, i1, 0.05)]
    radii = [0.3, 0.4, 0.5]
    check_kernel_bounds(model, oracle, spectral, pair_sample=pairs, centers=[i0, i1], radii=radii)
    assert calls["heat_kernel_block"] == len(pairs) + 2 * 2 * len(radii)


def test_volume_doubling(euclid2, sphere):
    model, oracle, _ = euclid2
    i0 = node_nearest(model, [0, 0])
    rep = check_volume_regularity(model, oracle, [i0], [0.3, 0.45, 0.6],
                                  ratio_window=(3.7, 4.3),
                                  tolerance=Tolerance(1e-12, 0.0))
    assert rep.passed
    assert rep.metadata["oracle_small_ratio"] == pytest.approx(4.0)
    with pytest.raises(NotApplicableError):
        check_volume_regularity(model, oracle, [i0], [1.0])   # hits the wall

    smodel, soracle, _ = sphere
    pole = node_nearest(smodel, [0, 0, 1])
    # radii between latitude shells keep the pole-ball staircase unbiased
    h = smodel.meta["h"]
    radii = (np.array([4, 5, 7]) + 0.5) * h
    rep2 = check_volume_regularity(smodel, soracle, [pole], radii,
                                   monotone_upper=4.0,
                                   tolerance=Tolerance(1e-12, 0.06))
    assert rep2.passed
    up = [s for s in rep2.samples if s["part"] == "ratio-upper-oracle"][0]
    assert up["margin"] >= 0.0   # cap concavity in closed form


@pytest.mark.parametrize("route", ["oracle", "graph"])
def test_volume_radii_reaching_the_boundary_raise(route):
    # the guard reads the centre's own distance field: the closed form on a
    # box, whose nearest boundary node lies along an axis as the boundary
    # Dijkstra finds it, and the graph distance on the Heisenberg lattice,
    # whose oracle has no closed form
    spec = (ModelSpec("euclidean", dim=2, resolution=16, extent=1.0)
            if route == "oracle" else ModelSpec("heisenberg", dim=3, resolution=9))
    model, oracle = build_model(spec)
    assert (oracle.exact_distance is not None) == (route == "oracle")
    x = node_nearest(model, np.zeros(model.nodes.shape[1]))
    safe = float(model.metric_distance_to_boundary()[x])
    with pytest.raises(NotApplicableError, match=rf"^radii reach the truncation boundary "
                       rf"\(safe range {safe:g}\)$"):
        check_volume_regularity(model, oracle, [x], [0.2, 0.5 * safe + 1e-9])
    rep = check_volume_regularity(model, oracle, [x], [0.2, 0.5 * safe])
    assert [row[:2] for row in rep.metadata["series"]] == [[x, 0.2], [x, 0.5 * safe]]


def test_neumann_poincare(euclid1):
    from heatlab import neumann_restrict

    model, _, _ = euclid1
    sub = neumann_restrict(model, np.abs(model.nodes[:, 0]) <= 0.5)
    length = sub.n_nodes * model.meta["h"]
    rep = check_neumann_poincare(sub, diameter=length, constant=np.pi**2,
                                 expected_product=np.pi**2)
    assert rep.passed
    assert rep.metadata["product"] == pytest.approx(np.pi**2, rel=0.01)


def test_sobolev_embedding(euclid3):
    model, oracle = euclid3
    i0 = node_nearest(model, [0, 0, 0])
    rep = check_sobolev_embedding(model, oracle,
                                  bump_fields(model, centers=[i0], width=0.25))
    assert rep.passed
    expected = 2 ** (2 / 3) * 6 * ((4 * np.pi) ** -1.5) ** (1 / 3) / np.sqrt(np.pi)
    assert rep.metadata["constant"] == pytest.approx(expected)


def test_isoperimetric(euclid2):
    model, oracle, _ = euclid2
    centers = [node_nearest(model, c) for c in
               ([0, 0], [0.2, 0.1], [-0.15, 0.25], [0.1, -0.2], [-0.05, -0.12])]
    rep = check_isoperimetric_balls(model, oracle, centers, [0.3, 0.4, 0.5, 0.6],
                                    expected_ratio=1 / (2 * np.sqrt(np.pi)))
    assert rep.passed
    assert rep.metadata["ratio_mean"] == pytest.approx(1 / (2 * np.sqrt(np.pi)),
                                                       rel=0.05)
    # coarea perimeters follow 2 pi r, cut-edge perimeters the projected 8 r
    r = np.array([0.3, 0.4, 0.5, 0.6])
    coarea = np.array([row[2] for row in rep.metadata["series"]])
    assert np.all(np.abs(coarea / (2 * np.pi * r) - 1) < 0.1)
    assert np.all(np.abs(np.array(rep.metadata["cut_perimeters"]) / (8 * r) - 1) < 0.1)


def test_samples_compare_their_two_sides(euclid2, sphere):
    # no placeholder, flag or implied row: every margin is rhs - lhs, and
    # what is only recorded sits in the metadata
    model, oracle, _ = euclid2
    i0 = node_nearest(model, [0, 0])
    smodel, soracle, sspectral = sphere
    pole = node_nearest(smodel, [0, 0, 1])
    radii = (np.array([4, 5, 7]) + 0.5) * smodel.meta["h"]
    reports = [
        check_volume_regularity(model, oracle, [i0], [0.3, 0.45, 0.6],
                                ratio_window=(3.7, 4.3)),
        check_volume_regularity(smodel, soracle, [pole], radii, monotone_upper=4.0),
        check_isoperimetric_balls(model, oracle, [i0], [0.3, 0.4, 0.5, 0.6]),
        check_spectral_gap(smodel, soracle, sspectral)]
    for rep in reports:
        assert rep.samples
        assert all(s["margin"] == s["rhs"] - s["lhs"] for s in rep.samples), rep.check_id


def test_sharp_sobolev_family(sphere):
    model, oracle, spectral = sphere
    suite = positive_fields(model, spectral)
    pole = node_nearest(model, [0, 0, 1])
    extremal = latitude_profiles(model, pole, p=40.0)
    rep = check_sobolev_sharp(model, oracle, suite, extremal_suite=extremal)
    assert rep.passed
    assert rep.metadata["extremal_worst_gap"] < 0.05
    p1 = rep.samples[-1]
    assert p1["quantity"] == "p1-equals-poincare" and p1["lhs"] < 1e-8
    assert rep.metadata["p1_identity_gap"] == p1["lhs"]


def test_sharp_p1_matches_poincare(sphere):
    model, oracle, spectral = sphere
    f = positive_fields(model, spectral)[1].field
    lhs, rhs = sharp_sobolev_sides(model, oracle, f.values, 1.0)
    pm = poincare_margin(model, f, 0.5, absolute=True)
    assert (rhs - lhs) == pytest.approx(2.0 * pm / model.total_measure, abs=1e-8)


def test_diameter_bound(sphere):
    model, oracle, _ = sphere
    rep = check_diameter(model, oracle)
    assert rep.passed
    assert rep.metadata["bound"] >= np.pi
    assert rep.metadata["bound"] == pytest.approx(np.pi * np.sqrt(40.0 / 38.0),
                                                  rel=1e-12)
    assert rep.metadata["bound"] <= 1.05 * np.pi
    with pytest.raises(ValueError):
        diameter_bound(2.0, 1.0)


def test_distance_sandwich_checks(sphere, heis):
    for bundle, pairs in ((sphere, 15), (heis, 8)):
        model, oracle = bundle[0], bundle[1]
        rep = check_distance_sandwich(model, oracle, sample_node_pairs(model, pairs, seed=4))
        assert rep.passed


def test_kernel_laws_and_spectrum(torus1):
    model, oracle, spectral = torus1
    rep = check_kernel_laws(model, spectral)
    assert rep.passed
    assert rep.metadata["cross_engine_sup_diff"] < 1e-4
    rep2 = check_spectrum(model, oracle, spectral, count=5, rtol=0.01)
    assert rep2.passed


def test_a_check_that_gates_no_sample_does_not_pass(torus1):
    # with nothing compared, min_margin would be +inf and the report a pass
    model, oracle, spectral = torus1
    with pytest.raises(NotApplicableError, match="^distance-sandwich gated no sample$"):
        check_distance_sandwich(model, oracle, [])
    with pytest.raises(NotApplicableError, match="^distance-sandwich gated no sample$"):
        check_distance_sandwich(model, oracle, [(3, 3)])     # x == y compares nothing
    with pytest.raises(NotApplicableError, match="^harnack-riemannian gated no sample$"):
        check_harnack(model, oracle, bump_fields(model, seed=0), [])
    # zip would cut the comparison at the retained pairs and still pass
    with pytest.raises(NotApplicableError,
                       match="^count: 65 exceeds the 64 retained pairs$"):
        check_spectrum(model, oracle, spectral, count=65)
    assert len(check_spectrum(model, oracle, spectral, count=64).samples) == 64


def test_kernel_laws_with_the_campaign_flow(sphere):
    # the check evolves by the exact flow; on a field in the span of the 300
    # retained pairs the eigen-expansion is exact too, so only roundoff
    # separates the routes
    model, _, spectral = sphere
    rep = check_kernel_laws(model, spectral)
    assert rep.passed
    assert rep.metadata["cross_engine_sup_diff"] < 1e-10


def _least_margin(rep):
    return min(s["margin"] for s in rep.samples)


def test_equilibrium_rate(sphere):
    model, _, spectral = sphere
    rep = check_equilibrium_rate(model, spectral)
    assert rep.passed
    assert rep.metadata["slope"] == pytest.approx(-spectral.eigenvalues[1], rel=0.03)
    assert rep.min_margin == _least_margin(rep)


def test_ball_poincare_is_report_only(heis):
    model = heis[0]
    rep = check_ball_poincare(model, node_nearest(model, [0, 0, 0]))
    assert rep.metadata["gate"] == "report-only"
    assert 3 < rep.metadata["nodes"] < model.n_nodes
    assert rep.min_margin == _least_margin(rep)
    assert rep.min_margin == pytest.approx(rep.metadata["lambda1"] * 0.6**2)
    assert rep.min_margin > 0


def test_subunit_oracle(heis):
    rep = check_subunit_oracle(heis[0])
    assert rep.passed
    assert [("z" in s, "x" in s) for s in rep.samples] == \
        [(True, False), (True, False), (False, True)]
    vertical = rep.samples[0]
    assert vertical["lhs"] >= vertical["rhs"] == pytest.approx(2 * np.sqrt(0.04 * np.pi))
    assert rep.min_margin == _least_margin(rep)
