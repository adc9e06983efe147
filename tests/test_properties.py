"""Property-based checks of the structural identities."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from heatlab import (
    ExpmFlow,
    ModelSpec,
    apply_semigroup,
    build_model,
    carre_du_champ,
    gamma_z,
)
from heatlab.fields import deep_interior
from heatlab.reports import MarginReport, Tolerance

MODEL, ORACLE = build_model(ModelSpec("torus", dim=1, resolution=16))
HEIS, _ = build_model(
    ModelSpec("heisenberg", dim=3, resolution=9, extent=1.0,
              options={"z_extent": 0.25}))
FLOW = ExpmFlow(MODEL)

field_values = arrays(np.float64, MODEL.n_nodes,
                      elements=st.floats(-5, 5, allow_nan=False))
heis_values = arrays(np.float64, HEIS.n_nodes,
                     elements=st.floats(-2, 2, allow_nan=False))


@settings(max_examples=25, deadline=None)
@given(field_values, field_values)
def test_gamma_symmetric_bilinear(a, b):
    f, g = MODEL.field(a), MODEL.field(b)
    fg = carre_du_champ(MODEL, f, g).values
    gf = carre_du_champ(MODEL, g, f).values
    assert np.allclose(fg, gf, atol=1e-10)
    two_f = MODEL.field(2.0 * a)
    assert np.allclose(carre_du_champ(MODEL, two_f, g).values, 2 * fg, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(field_values)
def test_gamma_nonnegative(a):
    g = carre_du_champ(MODEL, MODEL.field(a)).values
    assert g.min() >= -1e-12 * max(1.0, np.abs(a).max() ** 2)


@settings(max_examples=15, deadline=None)
@given(field_values, st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_semigroup_law(a, s, t):
    f = MODEL.field(a)
    ab = apply_semigroup(MODEL, FLOW, apply_semigroup(MODEL, FLOW, f, s), t)
    c = apply_semigroup(MODEL, FLOW, f, s + t)
    assert np.allclose(ab.values, c.values, atol=1e-9 * max(1.0, np.abs(a).max()))


@settings(max_examples=15, deadline=None)
@given(field_values, st.floats(0.0, 2.0))
def test_lp_contraction_and_mass(a, t):
    f = MODEL.field(a)
    pt = apply_semigroup(MODEL, FLOW, f, t)
    scale = max(1.0, np.abs(a).max())
    assert MODEL.integrate(pt) == pytest.approx(MODEL.integrate(f),
                                                abs=1e-9 * scale)
    for p in (1, 2, np.inf):
        assert MODEL.norm(pt, p) <= MODEL.norm(f, p) + 1e-9 * scale


@settings(max_examples=10, deadline=None)
@given(heis_values, heis_values, heis_values)
def test_vertical_leibniz_rate(a, b, c):
    # Gamma^Z(fg, h) - f Gamma^Z(g, h) - g Gamma^Z(f, h) is a third-order
    # difference expression; bounded by the product of increments
    f, g, h = HEIS.field(a), HEIS.field(b), HEIS.field(c)
    fg = HEIS.field(a * b)
    lhs = gamma_z(HEIS, fg, h).values
    rhs = (a * gamma_z(HEIS, g, h).values
           + b * gamma_z(HEIS, f, h).values)
    ef = HEIS.vertical_form
    third = np.zeros(HEIS.n_nodes)
    np.add.at(third, ef.i, ef.c * np.abs(
        ef.differences(a) * ef.differences(b) * ef.differences(c)))
    np.add.at(third, ef.j, ef.c * np.abs(
        ef.differences(a) * ef.differences(b) * ef.differences(c)))
    bound = third / (2 * HEIS.mu) + 1e-9 * max(1.0, np.abs(a).max() *
                                               np.abs(b).max() * np.abs(c).max())
    assert np.all(np.abs(lhs - rhs) <= bound)


def test_vertical_leibniz_smooth_convergence():
    # for smooth fields the Leibniz defect decays at second order
    errs, hzs = [], []
    for res in (9, 17):
        m, _ = build_model(ModelSpec("heisenberg", dim=3, resolution=res,
                                     extent=1.0, options={"z_extent": 0.25}))
        x, y, z = m.nodes[:, 0], m.nodes[:, 1], m.nodes[:, 2]
        f, g, h = m.field(np.sin(x) * z), m.field(y * z), m.field(np.cos(y + z))
        fg = m.field(f.values * g.values)
        lhs = gamma_z(m, fg, h).values
        rhs = (f.values * gamma_z(m, g, h).values
               + g.values * gamma_z(m, f, h).values)
        mask = deep_interior(m, hops=1)
        errs.append(np.max(np.abs((lhs - rhs)[mask])))
        hzs.append(m.meta["z_step"])
    rate = np.log(errs[0] / errs[1]) / np.log(hzs[0] / hzs[1])
    assert rate >= 1.0


@settings(max_examples=40, deadline=None)
@given(st.floats(-10, 10), st.floats(0, 2), st.floats(0, 2), st.floats(0.1, 50))
def test_margin_report_verdict_algebra(margin, tol_abs, tol_rel, scale):
    rep = MarginReport("demo", "m", [{"margin": margin}], margin,
                       Tolerance(tol_abs, tol_rel), scale=scale)
    assert rep.passed == (margin >= -(tol_abs + tol_rel * scale))
    assert rep.verdict in ("pass", "fail")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_report_json_roundtrip(seed):
    rng = np.random.default_rng(seed)
    samples = [{"margin": float(rng.standard_normal()), "k": int(k)}
               for k in range(3)]
    rep = MarginReport("demo", "m", samples,
                       min(s["margin"] for s in samples), Tolerance(0.1, 0.0))
    back = MarginReport.from_json_dict(rep.to_json_dict())
    assert back.dumps() == rep.dumps()
