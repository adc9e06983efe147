"""The verification suite: one margin report per inequality family.

Every check evaluates its inequality over a sample grid (fields x nodes x
parameters), records per-sample (lhs, rhs, margin), and gates on the
minimum margin against an (absolute, relative) tolerance.  Each sample row
is made by ``_row`` (or ``_worst``, the least-margin node of a field); its
margin is rhs - lhs unless the check passes another as ``margin=``.  Margins
of multiplicative inequalities (Harnack, kernel bounds, Sobolev norms) are
normalized per sample; additive pointwise margins carry a recorded scale.
Every sample compares two sides and every one is gated; a check left with
no sample, or with a non-finite lhs, rhs or margin (an overflowed side is
no comparison), raises ``NotApplicableError`` rather than pass.  Values a
check records without comparing them (per-radius ball volumes, say) go
into the report's metadata, as ``series`` rows named by ``series_columns``.

Saturation witnesses are first-class: where an inequality is sharp the
check also verifies the margin is close to zero, not merely nonnegative.

No check takes a seed.  A sample design (suites, centres, node pairs) is an
argument, drawn from the run's seed by the bindings in ``cli``; the probes
of ``check_operator_axioms`` and ``check_kernel_laws`` come from the
constant ``PROBE_SEED``.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fields import (
    PROBE_SEED,
    DiscretizedModel,
    NotApplicableError,
    ScalarField,
    carre_du_champ,
    cd_forms,
    deep_interior,
    gamma2_z,
    gamma_z,
    interior_for_time,
    self_test_gamma,
)
from .metric import (
    ball_volumes,
    discrete_perimeter,
    distance_field,
    dual_distance,
    subunit_distance_heisenberg,
    volume_growth_exponent,
)
from .models import UNIT_BALL_VOLUME, GeometryOracle
from .reports import MarginReport, Tolerance
from .semigroup import (
    SpectralData,
    apply_semigroup,
    equilibrium_rate,
    heat_kernel_block,
    neumann_restrict,
    spectral_decompose,
)
from .suites import NamedField, eps_shift


def _report(check_id, model_id, samples, tolerance, scale=1.0, metadata=None):
    if not samples:
        raise NotApplicableError(f"{check_id} gated no sample")
    sides = ("lhs", "rhs", "margin")
    for s in samples:
        if not all(np.isfinite(s[k]) for k in sides):
            where = ", ".join(f"{k}={v}" for k, v in s.items() if k not in sides)
            bad = ", ".join(f"{k}={s[k]}" for k in sides if not np.isfinite(s[k]))
            raise NotApplicableError(f"{check_id} sample {where} is not finite: {bad}")
    return MarginReport(
        check_id=check_id,
        model_id=model_id,
        samples=samples,
        min_margin=float(min(s["margin"] for s in samples)),
        tolerance=tolerance,
        scale=float(scale),
        metadata=metadata or {},
    )


def _row(lhs, rhs, margin=None, **where):
    """One sample: its parameters ``where``, both sides and the margin,
    rhs - lhs unless ``margin`` is given."""
    lhs, rhs = float(lhs), float(rhs)
    return {**where, "lhs": lhs, "rhs": rhs,
            "margin": rhs - lhs if margin is None else float(margin)}


def _worst(idx, lhs, rhs, **where):
    """The ``_row`` of the node of ``idx`` with the least rhs - lhs, with its
    ``node``; ``lhs`` and ``rhs`` hold one value per entry of ``idx``, or a
    scalar."""
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    k = int(np.argmin(rhs - lhs))
    return _row(lhs[k], rhs[k], **where, node=int(idx[k]))


def _mask_indices(model, mask):
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise NotApplicableError("interior mask is empty; model too coarse")
    return idx


def _norm_margin(lhs, rhs):
    return (rhs - lhs) / max(abs(lhs), abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# operator axioms


AXIOM_FIELDS = 100


def check_operator_axioms(model: DiscretizedModel,
                          tolerance: Tolerance | None = None) -> MarginReport:
    """Report the residuals of the defining operator axioms.

    Covers mu-weighted symmetry, L1 = 0, Dirichlet nonpositivity of
    <f, Lf>_mu and pointwise Gamma(f) >= 0 over 100 random fields, and
    the agreement of the edge and operator routes to Gamma; the fields of
    both are probes drawn from ``PROBE_SEED``.  Unless given, the tolerance
    is the roundoff slack of ``self_test_gamma``, 4 (r + 3) eps s F G, which
    grows with the operator scale s and the longest row r.
    """
    rng = np.random.default_rng(PROBE_SEED)
    D = sp.diags(model.mu)
    M = D @ model.L
    sym_residual = float(np.abs((M - M.T)).max()) if M.nnz else 0.0

    ones = model.constant(1.0)
    l1_residual = float(np.max(np.abs(model.L @ ones.values)))

    min_dirichlet = np.inf
    min_gamma = np.inf
    for _ in range(AXIOM_FIELDS):
        f = model.field(rng.standard_normal(model.n_nodes))
        min_dirichlet = min(min_dirichlet, -model.inner(f, model.apply_L(f)))
        min_gamma = min(min_gamma, float(carre_du_champ(model, f).values.min()))

    gamma_paths, slack = self_test_gamma(model)

    samples = [_row(lhs, 0.0, axiom=axiom) for axiom, lhs in (
        ("weighted-symmetry", sym_residual), ("unit-in-kernel", l1_residual),
        ("dirichlet-nonpositive", -min_dirichlet),
        ("gamma-nonnegative", -min_gamma), ("gamma-two-paths", gamma_paths))]
    scale = float(np.abs(model.L.data).max()) if model.L.nnz else 1.0
    return _report("operator-axioms", model.model_id, samples,
                   tolerance or Tolerance(slack), scale,
                   {"n_random_fields": AXIOM_FIELDS})


# ---------------------------------------------------------------------------
# curvature-dimension


def span_cd_margin(model, oracle: GeometryOracle, basis: np.ndarray) -> float:
    """Worst relative CD margin over every field in the span of ``basis``.

    ``basis`` holds mu-orthonormal columns.  The margin field and Gamma2
    are quadratic in f, so at each node they are m x m forms in the
    coefficients, polarized from the columns and their pairwise sums.  The
    result is the least pointwise eigenvalue of the margin form over the
    largest pointwise eigenvalue of the Gamma2 form plus max |L basis|^2/n,
    the ``check_cd`` scale taken over the unit sphere of the span.  It is
    unchanged when the columns are rotated inside the span, so it does not
    depend on the basis a solver picks inside a degenerate eigenspace.
    """
    rho, n = oracle.ricci_lower, float(oracle.dim)
    idx = _mask_indices(model, deep_interior(model, hops=2))
    m = basis.shape[1]

    def forms(v):
        g, g2, lf2 = cd_forms(model, model.field(v))
        return np.stack([(g2 - lf2 / n - rho * g)[idx], g2[idx]])

    single = [forms(basis[:, a]) for a in range(m)]
    M = np.empty((2, idx.size, m, m))
    for a in range(m):
        M[:, :, a, a] = single[a]
        for b in range(a + 1, m):
            cross = (forms(basis[:, a] + basis[:, b]) - single[a] - single[b]) / 2
            M[:, :, a, b] = M[:, :, b, a] = cross
    margin = np.linalg.eigvalsh(M[0])[:, 0]
    g2 = np.abs(np.linalg.eigvalsh(M[1])).max()
    lsq = np.max(np.sum((model.L @ basis)[idx] ** 2, axis=1))
    return float(margin.min() / (g2 + lsq / n))


# second-order composition errors carry curvature^2-sized constants on
# sub-Riemannian lattices; their slack reflects measured behaviour
CD_TOLERANCE = {"riemannian": Tolerance(1e-12, 0.02, mesh_order=2),
                "generalized": Tolerance(1e-12, 0.10, mesh_order=2),
                "scan": Tolerance(1e-12, 0.10, mesh_order=2)}


def check_cd(model: DiscretizedModel, oracle: GeometryOracle,
             suite: list[NamedField],
             nu_grid=tuple(np.geomspace(0.25, 64, 10)),
             mode: str = "riemannian",
             tolerance: Tolerance | None = None,
             equality_fields=()) -> MarginReport:
    """Pointwise curvature-dimension margins over suite x interior (x nu).

    Modes: ``riemannian`` uses (rho, n) from the oracle; ``generalized``
    needs the model's vertical form and the oracle's CD parameters; ``scan``
    returns the largest rho1 compatible with the sample for the oracle's
    (rho2, kappa, n).  Each mode reads a suite field's forms from one
    ``cd_forms`` call (and one ``gamma2_z`` call), so Gamma2 runs once per
    field for any ``nu_grid``.  In ``riemannian`` mode each field also gates
    the gradient-of-Gamma lemma Gamma(Gamma f) <= 4 Gamma f (Gamma2 f - rho
    Gamma f).
    """
    if mode not in CD_TOLERANCE:
        raise ValueError(f"unknown cd mode {mode!r}")
    tolerance = tolerance or CD_TOLERANCE[mode]
    idx = _mask_indices(model, deep_interior(model, hops=2))
    samples, scale = [], 0.0
    meta: dict = {"mode": mode, "interior_nodes": int(idx.size)}

    if mode == "riemannian":
        rho, n = oracle.ricci_lower, float(oracle.dim)
        meta.update(rho=rho, n=n)
        forms = [cd_forms(model, nf.field) for nf in suite]
        scales = [float(np.max(np.abs(g2[idx])) + np.max(lf2[idx]) / n)
                  for g, g2, lf2 in forms]
        # the report's scale, over every field, so no row depends on the
        # order of the suite
        scale = max(scales, default=0.0)
        for nf, (g, g2, lf2), sc in zip(suite, forms, scales):
            marg = (g2 - lf2 / n - rho * g)[idx]
            samples.append(_worst(idx, -marg, 0.0, field=nf.name,
                                  mean_margin=float(marg.mean())))
            if nf.name in equality_fields:
                # sharpness witness: the margin must vanish, not just stay
                # nonnegative
                samples.append(_row(np.max(np.abs(marg)), tolerance.slack(sc),
                                    field=f"{nf.name}|equality"))
            gg = carre_du_champ(model, model.field(g)).values
            bound = 4 * g * (g2 - rho * g)
            lem = (bound - gg)[idx]
            lsc = float(np.max(np.abs(4 * g * g2)) + 1e-300)
            k = int(np.argmin(lem))
            samples.append(_row(gg[idx][k], bound[idx][k],
                                margin=lem[k] / lsc * scale if scale else lem[k],
                                field=f"{nf.name}|gradient-of-gamma",
                                node=int(idx[k]), normalized_by=lsc))
        return _report("cd", model.model_id, samples, tolerance, scale, meta)

    params = oracle.cd_params
    if params is None or model.vertical_form is None:
        raise NotApplicableError(
            f"cd mode {mode!r} needs CD parameters and a vertical form")
    meta.update(rho1=params.rho1, rho2=params.rho2, kappa=params.kappa,
                n=params.n, nu_grid=list(nu_grid))

    if mode == "generalized":
        for nf in suite:
            g, g2, lf2 = cd_forms(model, nf.field)
            gz, g2z = gamma2_z(model, nf.field)
            sc = float(np.max(np.abs(g2[idx])) + np.max(lf2[idx]) / params.n)
            scale = max(scale, sc)
            for nu in nu_grid:
                lhs = g2 + nu * g2z
                rhs = (lf2 / params.n + (params.rho1 - params.kappa / nu) * g
                       + params.rho2 * gz)
                samples.append(_worst(idx, -(lhs - rhs)[idx], 0.0,
                                      field=nf.name, nu=float(nu)))
        return _report("cd-generalized", model.model_id, samples, tolerance, scale, meta)

    # scan: largest rho1 keeping min margin >= -slack; per node the binding
    # value is min over nu of
    #   [Gamma2 + nu Gamma2Z + (kappa/nu) Gamma - (Lf)^2/n
    #    - rho2 GammaZ + slack] / Gamma,
    # where slack is this check's tolerance at the field's margin scale
    # (nodes with vanishing Gamma are then automatically unbinding).
    rho1_best = np.inf
    gamma_floor = 1e-8
    for nf in suite:
        g, g2, lf2 = (form[idx] for form in cd_forms(model, nf.field))
        gz, g2z = (form[idx] for form in gamma2_z(model, nf.field))
        ok = g > gamma_floor * max(float(g.max()), 1e-300)
        if not np.any(ok):
            continue
        scale_f = float(np.max(np.abs(g2)) + np.max(lf2) / params.n)
        slack = tolerance.slack(scale_f)
        num_best = np.full(idx.size, np.inf)
        for nu in nu_grid:
            num = g2 + nu * g2z + (params.kappa / nu) * g - lf2 / params.n - params.rho2 * gz
            num_best = np.minimum(num_best, num)
        vals = (num_best[ok] + slack) / g[ok]
        k = int(np.argmin(vals))
        rho1_f = float(vals[k])
        rho1_best = min(rho1_best, rho1_f)
        samples.append(_row(0.0, rho1_f, field=nf.name,
                            node=int(idx[np.flatnonzero(ok)[k]]), slack=slack))
    meta["rho1_scan"] = float(rho1_best)
    return _report("cd-scan", model.model_id, samples, tolerance,
                   scale=1.0, metadata=meta)


def check_vertical_commutation(
        model, suite,
        tolerance: Tolerance = Tolerance(1e-12, 0.08, mesh_order=2)) -> MarginReport:
    """Residual of the mixed-form symmetry Gamma(f, Gamma^Z f) = Gamma^Z(f, Gamma f).

    Residuals are normalized by the Cauchy-Schwarz majorant of either side,
    sqrt(Gamma(f) Gamma(Gamma^Z f)) + sqrt(Gamma^Z(f) Gamma^Z(Gamma f)), the
    honest size of the bilinear quantities whose cancellation is tested.
    """
    idx = _mask_indices(model, deep_interior(model, hops=2))
    samples, scale = [], 1.0
    for nf in suite:
        gz = gamma_z(model, nf.field)
        g = carre_du_champ(model, nf.field)
        a = carre_du_champ(model, nf.field, gz).values[idx]
        b = gamma_z(model, nf.field, g).values[idx]
        g_gz = carre_du_champ(model, gz).values[idx]
        gz_g = gamma_z(model, g).values[idx]
        major = float(np.max(np.sqrt(np.maximum(g.values[idx] * g_gz, 0.0))
                             + np.sqrt(np.maximum(gz.values[idx] * gz_g, 0.0))))
        resid = float(np.max(np.abs(a - b)))
        rel = resid / max(major, 1e-300)
        samples.append(_row(resid, 0.0, margin=-rel, field=nf.name, majorant=major))
    return _report("vertical-commutation", model.model_id, samples, tolerance,
                   scale, {"interior_nodes": int(idx.size)})


# ---------------------------------------------------------------------------
# semigroup-based pointwise bounds


def check_gradient_bound(model, oracle, suite,
                         t_grid=(0.1, 0.5, 1.0),
                         tolerance: Tolerance = Tolerance(1e-12, 0.02, mesh_order=2)
                         ) -> MarginReport:
    """sqrt(Gamma(P_t f)) <= exp(-rho t) P_t sqrt(Gamma(f)) pointwise."""
    rho = oracle.ricci_lower
    samples, scale = [], 0.0
    sqrt_gamma = [model.field(np.sqrt(carre_du_champ(model, nf.field).values))
                  for nf in suite]
    for t in t_grid:
        idx = _mask_indices(model, interior_for_time(model, t))
        for nf, sg in zip(suite, sqrt_gamma):
            rhs = np.exp(-rho * t) * apply_semigroup(model, sg, t).values
            ptf = apply_semigroup(model, nf.field, t)
            lhs = np.sqrt(carre_du_champ(model, ptf).values)
            scale = max(scale, float(np.max(np.abs(rhs[idx]))))
            samples.append(_worst(idx, lhs[idx], rhs[idx], field=nf.name, t=float(t)))
    return _report("gradient-bound", model.model_id, samples, tolerance, scale,
                   {"rho": rho})


def check_completeness(model, t_grid=(0.1, 1.0),
                       tolerance: Tolerance = Tolerance(1e-10)) -> MarginReport:
    """Mass conservation: sup |P_t 1 - 1| per time (exact on reflecting closures)."""
    samples = []
    one = model.constant(1.0)
    for t in t_grid:
        pt = apply_semigroup(model, one, t)
        samples.append(_row(np.max(np.abs(pt.values - 1.0)), 0.0, t=float(t)))
    return _report("completeness", model.model_id, samples, tolerance, 1.0, {})


# ---------------------------------------------------------------------------
# spectral gap / Poincare / log-Sobolev


def poincare_margin(model, f: ScalarField, const: float, absolute: bool = False) -> float:
    """const * int Gamma(f) + (int f)^2 / mu(M) - int f^2  (>= 0 wanted)."""
    fv = np.abs(f.values) if absolute else f.values
    dirichlet = -model.inner(f, model.apply_L(f))      # = int Gamma(f) dmu
    mean_sq = model.integrate(model.field(fv)) ** 2 / model.total_measure
    return const * dirichlet + mean_sq - model.inner(f, f)


def check_spectral_gap(model, oracle, spectral: SpectralData,
                       tolerance: Tolerance = Tolerance(1e-12, 0.02, mesh_order=2)
                       ) -> MarginReport:
    """Spectral gap against the sharp positive-curvature bound n rho/(n-1).

    Over all fields, the least Poincare margin with constant 1/bound,
    relative to Var f and times bound, is lambda_1 - bound, attained by the
    first eigenfield; so the gap row tests the Poincare inequality exactly,
    and the saturation row asks that it be sharp: |lambda_1 - bound| within
    the tolerance.
    """
    rho, n = oracle.ricci_lower, float(oracle.dim)
    if rho <= 0:
        raise NotApplicableError("spectral-gap bound needs rho > 0")
    bound = n * rho / (n - 1)
    lam1 = float(spectral.eigenvalues[1])
    samples = [_row(bound, lam1, quantity="gap"),
               _row(abs(lam1 - bound), 0.0, quantity="poincare-extremal-saturation")]
    return _report("spectral-gap", model.model_id, samples, tolerance,
                   scale=bound, metadata={"rho": rho, "n": n, "lambda1": lam1,
                                          "bound": bound})


def _entropy(model, g: np.ndarray) -> float:
    """int g ln g dmu^ - (int g) ln(int g) with the normalized measure."""
    mu = model.mu / model.total_measure
    gm = float(mu @ g)
    with np.errstate(divide="ignore", invalid="ignore"):
        glg = np.where(g > 0, g * np.log(np.maximum(g, 1e-300)), 0.0)
    return float(mu @ glg - gm * np.log(gm))


def check_log_sobolev(model, oracle, suite,
                      tolerance: Tolerance = Tolerance(1e-12, 0.02, mesh_order=2)
                      ) -> MarginReport:
    """Entropy inequality with constant 2/rho, plus the entropy-decay rate.

    The decay mode fits the slope of log Ent(P_t f) over t in [0.3, 1.5]
    and requires it at most -2 rho + 0.05.
    """
    rho = oracle.ricci_lower
    if rho <= 0:
        raise NotApplicableError("log-Sobolev constant needs rho > 0")
    samples, scale = [], 0.0
    eps_used = {}
    for nf in suite:
        f, eps = eps_shift(model, nf.field)
        if np.min(f.values) <= 0:
            raise ValueError(f"suite field {nf.name} not positive after shift")
        eps_used[nf.name] = eps
        for fac, tag in ((1.0, ""), (0.1, "|eps/10")):
            fe = model.field(nf.field.values + eps * fac)
            ent = _entropy(model, fe.values**2)
            rhs = (2.0 / rho) * dirichlet_normalized(model, fe.values)
            scale = max(scale, abs(rhs), abs(ent))
            samples.append(_row(ent, rhs, field=nf.name + tag))
    meta = {"rho": rho, "constant": 2.0 / rho, "eps": eps_used}
    f = suite[0].field
    for nf in suite:
        if nf.field.values.min() > 0 and np.ptp(nf.field.values) > 1e-6:
            f = nf.field
            break
    t_grid, slope_slack = tuple(np.linspace(0.3, 1.5, 7)), 0.05
    ents = []
    for t in t_grid:
        pt = apply_semigroup(model, f, t)
        ents.append(_entropy(model, np.maximum(pt.values, 1e-300)))
    ents = np.array(ents)
    if np.all(ents > 0):
        slope = float(np.polyfit(np.asarray(t_grid, float), np.log(ents), 1)[0])
        meta["entropy_slope"] = slope
        meta["entropy_series"] = [[float(t), float(np.log(e))]
                                  for t, e in zip(t_grid, ents)]
        rhs = -2 * rho + slope_slack
        samples.append(_row(slope, rhs, margin=(rhs - slope) * scale / max(abs(slope), 1.0),
                            quantity="entropy-decay-slope"))
    return _report("log-sobolev", model.model_id, samples, tolerance, scale, meta)


def check_equilibrium_rate(model, spectral: SpectralData) -> MarginReport:
    """Heat flow reaches equilibrium at the spectral-gap rate.

    The fitted slope of log ||P_t phi_1 - mean|| over t in [0.5, 2], with
    phi_1 evolved by the exact flow, must match -lambda_1 within 3%.
    """
    t_grid, rtol = tuple(np.linspace(0.5, 2.0, 7)), 0.03
    f = model.field(spectral.eigenfields[:, 1])
    slope = equilibrium_rate(model, f, t_grid)
    expect = -float(spectral.eigenvalues[1])
    gap = abs(slope - expect) / abs(expect)
    samples = [_row(gap, rtol, quantity="log-error-slope", slope=float(slope))]
    return _report("equilibrium-rate", model.model_id, samples,
                   Tolerance(0.0, 0.0), 1.0,
                   {"slope": float(slope), "expected": expect,
                    "t_grid": list(map(float, t_grid))})


# ---------------------------------------------------------------------------
# Li-Yau family


def harnack_dimension(alpha: float, kappa: float, rho2: float, n: float) -> float:
    """Effective Harnack exponent of the sub-Riemannian gradient estimate."""
    if alpha <= 2:
        raise ValueError("needs alpha > 2")
    return n * (alpha - 1) ** 2 * (1 + alpha * kappa / ((alpha - 1) * rho2)) / (4 * (alpha - 2))


def _positive_flow(model, nf: NamedField):
    """(eps, flow): the heat flow of suite field ``nf`` as a positive solution.

    A field that dips below 0 is shifted by ``eps_shift`` first (eps = 0
    otherwise).  ``flow(t, idx, where)`` is P_t f at every node, evolved
    once per t; it raises ``NotApplicableError`` unless P_t f is positive
    at the nodes ``idx`` that the check reads, named by ``where``.
    """
    f, eps = eps_shift(model, nf.field) if nf.field.values.min() < 0 else (nf.field, 0.0)
    evolved = {}

    def flow(t, idx, where):
        if t not in evolved:
            evolved[t] = apply_semigroup(model, f, t).values
        u = evolved[t]
        if np.min(u[idx]) <= 0:
            raise NotApplicableError(f"P_t {nf.name} not positive {where} at t = {t:g}")
        return u
    return eps, flow


def _li_yau_rhs(mode, t, rho, n, lu_over_u, alpha=None):
    if mode == "rho0":
        return lu_over_u + n / (2 * t)
    if mode == "general-alpha":
        a = alpha if alpha is not None else 1.0
        coef = 1 - 2 * rho * t / (2 * a + 1)
        const = 0.5 * n * (a**2 / ((2 * a - 1) * t) + rho**2 * t / (2 * a + 1) - rho)
        return coef * lu_over_u + const
    if mode == "exponential":
        e = np.exp(-2 * rho * t / 3)
        return e * lu_over_u + (n * rho / 3) * e**2 / (1 - e)
    raise ValueError(f"unknown mode {mode!r}")


def check_li_yau(model, oracle, suite, t_grid=(0.05, 0.1, 0.2),
                 mode: str = "rho0", alpha: float | None = None,
                 tolerance: Tolerance = Tolerance(1e-12, 0.03, mesh_order=2),
                 saturation_fields=(), saturation_rtol: float = 0.01) -> MarginReport:
    """Gradient-of-logarithm estimates for positive solutions (``_positive_flow``).

    Modes: ``rho0`` (sharp flat-space form), ``general-alpha``,
    ``exponential`` (needs rho > 0), ``bakry-qian`` (needs rho > 0 and
    t >= 2/rho), and ``sub-riemannian`` (needs the model's vertical form,
    the oracle's CD parameters and alpha > 2).
    Fields named in ``saturation_fields`` must additionally come within
    ``saturation_rtol`` (relative to the report scale) of equality somewhere
    on the interior.
    """
    rho, n = oracle.ricci_lower, float(oracle.dim)
    if mode in ("bakry-qian", "exponential") and rho <= 0:
        raise NotApplicableError(f"{mode} mode needs rho > 0")
    if mode == "sub-riemannian":
        params = oracle.cd_params
        if params is None or model.vertical_form is None:
            raise NotApplicableError(
                "sub-riemannian mode needs CD parameters and a vertical form")
        if alpha is None or alpha <= 2:
            raise NotApplicableError(f"alpha: sub-riemannian mode needs alpha > 2, "
                                     f"got {alpha}")
    samples, scale = [], 0.0
    sat_worst = {}
    meta = {"mode": mode, "alpha": alpha, "rho": rho, "n": n}
    flows = [(nf, *_positive_flow(model, nf)) for nf in suite]
    for t in t_grid:
        if mode == "bakry-qian" and t < 2 / rho - 1e-12:
            raise NotApplicableError(f"t_grid: bakry-qian mode needs t >= 2/rho "
                                     f"= {2 / rho:g}, got {t:g}")
        idx = _mask_indices(model, interior_for_time(model, t))
        for nf, eps, flow in flows:
            uv = flow(t, idx, "on the interior")
            lu_over_u = (model.L @ uv) / uv
            if mode == "bakry-qian":
                lhs = lu_over_u[idx]
                rhs = np.full(idx.size, n * rho / 4)
            else:
                log_u = model.field(np.log(np.maximum(uv, 1e-300)))
                lhs = carre_du_champ(model, log_u).values[idx]
                if mode == "sub-riemannian":
                    c = 1 + alpha * params.kappa / ((alpha - 1) * params.rho2)
                    lhs = lhs + (2 * params.rho2 / alpha) * t * \
                        gamma_z(model, log_u).values[idx]
                    rhs = ((c - 2 * params.rho1 * t / alpha) * lu_over_u[idx]
                           + params.n * params.rho1**2 * t / (2 * alpha)
                           - params.rho1 * params.n * c / 2
                           + params.n * (alpha - 1) ** 2 * c**2 / (8 * (alpha - 2) * t))
                else:
                    rhs = _li_yau_rhs(mode, t, rho, n, lu_over_u[idx], alpha=alpha)
            scale = max(scale, float(np.max(np.abs(rhs))))
            samples.append(_worst(idx, lhs, rhs, field=nf.name, t=float(t), eps=eps))
            if nf.name in saturation_fields:
                close = float(np.min(np.abs(rhs - lhs)))
                sat_worst[nf.name] = max(sat_worst.get(nf.name, 0.0), close)
    if saturation_fields:
        allowed = saturation_rtol * scale
        for name, gap in sat_worst.items():
            samples.append(_row(gap, allowed, field=f"{name}|saturation"))
        meta["saturation_rtol"] = saturation_rtol
    return _report(f"li-yau-{mode}", model.model_id, samples, tolerance, scale, meta)


# ---------------------------------------------------------------------------
# Harnack


def check_harnack(model, oracle, suite, pair_sample,
                  mode: str = "riemannian",
                  tolerance: Tolerance = Tolerance(1e-12, 0.02, mesh_order=2)
                  ) -> MarginReport:
    """Two-point Harnack comparisons of positive solutions (``_positive_flow``).

    ``pair_sample`` is a list of (x, s, y, t) with s < t.  The Riemannian
    form uses K = max(0, -rho); the sub-Riemannian form uses the effective
    exponent from (alpha, kappa, rho2, n) at alpha = 3 and requires
    rho1 >= 0.
    Normalized margins: (rhs - lhs) / max(lhs, rhs).
    """
    rho, n = oracle.ricci_lower, float(oracle.dim)
    K = max(0.0, -rho)
    if mode == "sub-riemannian":
        params = oracle.cd_params
        if params is None or params.rho1 < 0:
            raise NotApplicableError("sub-riemannian Harnack needs rho1 >= 0")
        dim_exp = harnack_dimension(3.0, params.kappa, params.rho2, params.n)
        gauss = dim_exp / params.n
    else:
        dim_exp, gauss = n, 1.0
    meta = {"mode": mode, "K": K, "exponent": dim_exp, "gauss_factor": gauss}
    dists = [0.0 if x == y else float(distance_field(model, oracle, y).values[x])
             for (x, s, y, t) in pair_sample]

    samples = []
    for nf in suite:
        _, flow = _positive_flow(model, nf)
        for (x, s, y, t), d in zip(pair_sample, dists):
            if not s < t:
                raise ValueError("harnack pairs need s < t")
            lhs = float(flow(s, x, f"at x = {x}")[x])
            uy = float(flow(t, y, f"at y = {y}")[y])
            with np.errstate(over="ignore", invalid="ignore"):   # see ``_report``
                rhs = (uy * (t / s) ** (dim_exp / 2)
                       * np.exp(gauss * d**2 / (4 * (t - s))
                                + K * d**2 / 6 + n * K * (t - s) / 4))
                margin = _norm_margin(lhs, rhs)
            samples.append(_row(lhs, rhs, margin=margin, field=nf.name,
                                x=int(x), s=float(s), y=int(y), t=float(t), d=d))
    return _report(f"harnack-{mode}", model.model_id, samples, tolerance,
                   scale=1.0, metadata=meta)


# ---------------------------------------------------------------------------
# kernel bounds: lower (comparison), on-diagonal, two-sided, ball mass


BALL_MASS_A_GRID = (0.25, 0.5, 1.0)


def check_kernel_bounds(model, oracle, spectral, pair_sample,
                        centers, radii,
                        tolerance: Tolerance = Tolerance(1e-12, 0.05, mesh_order=2),
                        equality_expected: bool = False) -> MarginReport:
    """Kernel comparisons against distance/volume data.

    ``pair_sample`` holds the (x, y, t) triples of parts (a) and (c), which
    share one evaluation of each pair's distance and kernel; ``centers`` x
    ``radii`` is the grid of parts (b) and (d).

    (a) comparison lower bound p >= (4 pi t)^{-n/2} exp(-d^2/4t - K d^2/6
        - n K t/4), an equality in flat space (gated within 5% when
        ``equality_expected``);
    (b) on-diagonal sandwich: the products p(x,x,2r^2) mu(B(x,r)) and
        p(x,x,r^2) mu(B(x,r)) must be finite, ordered, and (in flat space,
        within 5%) constant in r;
    (c) two-sided bound: record (as ``two_sided_C``) the smallest constant
        C(eps), eps = 0.5, making the volume-normalized Gaussian sandwich
        hold over the sample;
    (d) ball mass: scan A over ``BALL_MASS_A_GRID`` for the largest uniform
        K with P_{A r^2} 1_{B(x,r)}(x) >= K, evolved by the exact flow.
    """
    rho, n = oracle.ricci_lower, float(oracle.dim)
    K = max(0.0, -rho)
    eps = 0.5
    saturation_rtol = ondiag_constancy_rtol = 0.05
    samples = []
    meta = {"n": n, "K": K, "eps": eps}

    # (a) comparison lower bound, and the constant of (c)
    worst_sat, c_fit = 0.0, 0.0
    for (x, y, t) in pair_sample:
        dx = distance_field(model, oracle, x).values
        d = float(dx[y])
        p = heat_kernel_block(spectral, t, [x], [y])[0, 0]
        low = ((4 * np.pi * t) ** (-n / 2)
               * np.exp(-d**2 / (4 * t) - K * d**2 / 6 - n * K * t / 4))
        m = _norm_margin(low, p)
        samples.append(_row(low, p, margin=m, part="comparison-lower",
                            x=int(x), y=int(y), t=float(t)))
        worst_sat = max(worst_sat, abs(m))
        vol = (oracle.exact_ball_volume(model.nodes[x], np.sqrt(t))
               if oracle.exact_ball_volume else
               float(ball_volumes(model, dx, [np.sqrt(t)])[0]))
        if p > 0 and vol > 0:
            up = p * vol / np.exp(-d**2 / ((4 + eps) * t))
            dn = np.exp(-d**2 / ((4 - eps) * t)) / (p * vol)
            c_fit = max(c_fit, up, dn)
    if equality_expected:
        samples.append(_row(worst_sat, saturation_rtol, part="comparison-saturation"))
        meta["saturation_rtol"] = saturation_rtol

    # (b) on-diagonal sandwich over (x, r)
    q_hi, q_lo = [], []
    for x in centers:
        vols = ball_volumes(model, distance_field(model, oracle, x).values, radii)
        for r, vol in zip(radii, vols):
            exact_vol = (oracle.exact_ball_volume(model.nodes[x], r)
                         if oracle.exact_ball_volume else vol)
            p_r = heat_kernel_block(spectral, r**2, [x], [x])[0, 0]
            p_2r = heat_kernel_block(spectral, 2 * r**2, [x], [x])[0, 0]
            hi, lo = p_r * exact_vol, p_2r * exact_vol
            q_hi.append(hi)
            q_lo.append(lo)
            samples.append(_row(lo, hi, part="ondiag", x=int(x), r=float(r),
                                volume_empirical=float(vol)))
    k_star, c_n = float(np.min(q_lo)), float(np.max(q_hi))
    meta["ondiag_lower_K"] = k_star
    meta["ondiag_upper_C"] = c_n
    samples.append(_row(k_star, c_n, margin=c_n - k_star if k_star > 0 else -1.0,
                        part="ondiag-ordered"))
    spread = (np.max(q_hi) - np.min(q_hi)) / np.mean(q_hi)
    meta["ondiag_product_spread"] = float(spread)
    if equality_expected:
        samples.append(_row(spread, ondiag_constancy_rtol, part="ondiag-constancy"))
        meta["ondiag_expected_product"] = float((4 * np.pi) ** (-n / 2)
                                                * UNIT_BALL_VOLUME[oracle.dim])

    # (c) two-sided Gaussian fit
    meta["two_sided_C"] = float(c_fit)

    # (d) ball-mass scan
    best = (None, -np.inf)
    for A in BALL_MASS_A_GRID:
        k_min = np.inf
        for x in centers:
            dx = distance_field(model, oracle, x).values
            for r in radii:
                ind = model.field((dx <= r).astype(float))
                val = apply_semigroup(model, ind, A * r**2).values[x]
                k_min = min(k_min, float(val))
        if k_min > best[1]:
            best = (float(A), k_min)
    meta["ball_mass_A"] = best[0]
    meta["ball_mass_K"] = best[1]
    samples.append(_row(0.0, best[1], part="ball-mass", A=best[0]))
    return _report("kernel-bounds", model.model_id, samples, tolerance, 1.0, meta)


# ---------------------------------------------------------------------------
# volume regularity


def check_volume_regularity(model, oracle, centers, radii,
                            ratio_window: tuple | None = None,
                            monotone_upper: float | None = None,
                            tolerance: Tolerance = Tolerance(1e-12, 0.05)) -> MarginReport:
    """Doubling ratios mu(B(x, 2r))/mu(B(x, r)) and the growth exponent.

    Each (centre, radius) is recorded in the metadata ``series``.  The
    doubling constant is the sup of the ratios; the reverse growth exponent
    is fitted from log volume against log radius and must match log2 of the
    doubling constant within 10%.  The least and largest ratio are gated
    against ``ratio_window``, and the largest, over ``monotone_upper``,
    against 1.  On the
    Heisenberg lattice the metadata also records ``chart_ball_envelope_C``,
    a report-only shape diagnostic: chart balls of radius r sit inside
    intrinsic balls of radius ~ C sqrt(r) near the vertical axis.
    """
    radii = np.asarray(radii, dtype=float)
    all_r = np.unique(np.concatenate([radii, 2 * radii]))
    ratios, series, slopes = [], [], []
    for x in centers:
        df = distance_field(model, oracle, x)
        safe = float(df.values[model.boundary_mask].min(initial=np.inf))
        if np.isfinite(safe) and 2 * radii.max() > safe:
            raise NotApplicableError(
                f"radii reach the truncation boundary (safe range {safe:g})")
        vols = ball_volumes(model, df.values, all_r)
        slopes.append(volume_growth_exponent(all_r, vols))
        vol = dict(zip(all_r, vols))
        for r in radii:
            ratio = vol[2 * r] / vol[r]
            ratios.append(ratio)
            series.append([int(x), float(r), float(vol[r]), float(vol[2 * r]),
                           float(ratio)])
    ratios = np.array(ratios)
    c_doub = float(ratios.max())
    meta = {"doubling_constant": c_doub, "Q_from_doubling": float(np.log2(c_doub)),
            "ratio_min": float(ratios.min()),
            "series_columns": ["x", "r", "volume_r", "volume_2r", "ratio"],
            "series": series}
    x0 = model.nodes[centers[0]]
    if oracle.exact_ball_volume is not None:
        ex = [oracle.exact_ball_volume(x0, 2 * r) / oracle.exact_ball_volume(x0, r)
              for r in radii]
        meta["oracle_small_ratio"] = float(ex[0])

    q_fit = float(np.mean(slopes))
    meta["growth_exponent_fit"] = q_fit
    gap = abs(q_fit - np.log2(c_doub)) / np.log2(c_doub)
    exponent_rtol = 0.10
    samples = [_row(gap, exponent_rtol, part="reverse-exponent")]

    if ratio_window is not None:
        lo, hi = ratio_window
        samples += [_row(lo, ratios.min(), part="ratio-window-lo"),
                    _row(ratios.max(), hi, part="ratio-window-hi")]
    if monotone_upper is not None:
        # ratios over the bound against 1, so the relative slack reads as a
        # fraction of the bound
        samples.append(_row(ratios.max() / monotone_upper, 1.0, part="ratio-upper"))
        if oracle.exact_ball_volume is not None:
            samples.append(_row(np.max(ex) / monotone_upper, 1.0,
                                part="ratio-upper-oracle"))
    if model.kind == "heisenberg":
        # the first centre's distance field (the graph distance while the
        # Heisenberg oracle has no closed form), read near the vertical axis
        near_axis = np.flatnonzero(np.hypot(model.nodes[:, 0], model.nodes[:, 1])
                                   < 2 * float(model.meta["h"]))
        d_model = distance_field(model, oracle, centers[0]).values[near_axis]
        d_ch = np.linalg.norm(model.nodes[near_axis] - x0, axis=1)
        sel = (d_ch > 1e-6) & np.isfinite(d_model)
        meta["chart_ball_envelope_C"] = float(np.max(d_model[sel] / np.sqrt(d_ch[sel])))
    return _report("volume-doubling", model.model_id, samples, tolerance, 1.0, meta)


# ---------------------------------------------------------------------------
# Neumann Poincare on domains


def check_neumann_poincare(submodel, diameter: float, constant: float = np.pi**2,
                           expected_product: float | None = None,
                           tolerance: Tolerance = Tolerance(1e-12, 0.02, mesh_order=2)
                           ) -> MarginReport:
    """lambda_1(Neumann) >= constant / diam^2 on a restricted domain.

    The relative slack also covers the sharp case, where the discrete gap
    converges to the optimal constant from below.  An ``expected_product``
    must be met within 1%.
    """
    sd = spectral_decompose(submodel, k=min(4, submodel.n_nodes))
    lam1 = float(sd.eigenvalues[1])
    product = lam1 * diameter**2
    samples = [_row(constant, product, quantity="gap-vs-diameter")]
    meta = {"lambda1": lam1, "diameter": diameter, "constant": constant,
            "product": product}
    if expected_product is not None:
        product_rtol = 0.01
        gap = abs(product / expected_product - 1.0)
        samples.append(_row(gap, product_rtol, quantity="sharp-product"))
        meta["expected_product"] = expected_product
    return _report("neumann-poincare", submodel.model_id, samples, tolerance,
                   scale=max(1.0, product), metadata=meta)


def check_ball_poincare(model, center: int) -> MarginReport:
    """Report-only: the scale-invariant Poincare constant lambda_1 r^2 of
    the Neumann problem on the graph-distance ball B(center, 0.6)."""
    radius = 0.6
    d = distance_field(model, None, center).values
    sub = neumann_restrict(model, np.flatnonzero(d <= radius))
    lam1 = float(spectral_decompose(sub, k=min(3, sub.n_nodes)).eigenvalues[1])
    samples = [_row(0.0, lam1 * radius**2, r=radius)]
    return _report("ball-poincare", model.model_id, samples,
                   Tolerance(0.0, 0.0), 1.0,
                   {"lambda1": lam1, "radius": radius, "nodes": sub.n_nodes,
                    "gate": "report-only"})


# ---------------------------------------------------------------------------
# Sobolev family


def lp_norm(model, values, p):
    mu_hat = model.mu / model.total_measure
    return float((mu_hat @ np.abs(values) ** p) ** (1.0 / p))


def dirichlet_normalized(model, values):
    mu_hat = model.mu / model.total_measure
    return -float(mu_hat @ (values * (model.L @ values)))


def sharp_sobolev_sides(model, oracle, values, p):
    """(lhs, rhs) of the sharp positive-curvature Sobolev family at index p.

    p = 1 is the sharp Poincare form, p = 2 the sharp log-Sobolev form,
    p > 2 the Lebesgue-norm form; the measure is normalized internally.
    """
    rho, n = oracle.ricci_lower, float(oracle.dim)
    coef = n * rho / (n - 1)
    dir_ = dirichlet_normalized(model, values)
    if p == 1:
        lhs = coef * (lp_norm(model, values, 2) ** 2 - lp_norm(model, values, 1) ** 2)
    elif p == 2:
        lhs = coef / 2 * _entropy(model, values**2)
    else:
        lhs = coef / (p - 2) * (lp_norm(model, values, p) ** 2
                                - lp_norm(model, values, 2) ** 2)
    return lhs, dir_


SOBOLEV_P_LIST = (1.0, 2.0, 40.0)


def check_sobolev_sharp(model, oracle, suite, extremal_suite=None,
                        tolerance: Tolerance = Tolerance(1e-12, 0.02, mesh_order=2)
                        ) -> MarginReport:
    """Sharp Sobolev family on a positive-curvature model (normalized measure).

    Each suite field is tested at every p of ``SOBOLEV_P_LIST``.  Each
    ``extremal_suite`` field must come within 5% of equality at the
    largest p.  A last sample checks that the p = 1 member reproduces the
    Poincare margin of each suite field, an identity up to the measure
    normalization.
    """
    rho, n = oracle.ricci_lower, float(oracle.dim)
    if rho <= 0:
        raise NotApplicableError("sharp Sobolev family needs rho > 0")
    normalized = [nf.field.values / max(np.max(np.abs(nf.field.values)), 1e-300)
                  for nf in suite]
    sides = {p: [sharp_sobolev_sides(model, oracle, v, p) for v in normalized]
             for p in SOBOLEV_P_LIST}
    samples, scale = [], 0.0
    for p in SOBOLEV_P_LIST:
        for nf, (lhs, rhs) in zip(suite, sides[p]):
            scale = max(scale, abs(rhs), abs(lhs))
            samples.append(_row(lhs, rhs, p=float(p), field=nf.name))
    meta = {"p_list": list(map(float, SOBOLEV_P_LIST))}
    if extremal_suite:
        p, extremal_rtol = max(SOBOLEV_P_LIST), 0.05
        worst = 0.0
        for nf in extremal_suite:
            v = nf.field.values
            lhs, rhs = sharp_sobolev_sides(model, oracle, v, p)
            ratio = lhs / rhs if rhs > 0 else 0.0
            worst = max(worst, abs(1 - ratio))
            samples.append(_row(lhs, rhs, p=float(p), field=nf.name,
                                equality_ratio=float(ratio)))
        samples.append(_row(worst, extremal_rtol, margin=(extremal_rtol - worst) * scale,
                            quantity="extremal-proximity"))
        meta["extremal_worst_gap"] = worst
    worst = 0.0
    for v, (lhs, rhs) in zip(normalized, sides[1.0]):
        pm = poincare_margin(model, model.field(v), (n - 1) / (n * rho),
                             absolute=True)
        worst = max(worst, abs((rhs - lhs)
                               - (n * rho / (n - 1)) * pm / model.total_measure))
    samples.append(_row(worst, 1e-8, margin=(1e-8 - worst) * scale,
                        quantity="p1-equals-poincare"))
    meta["p1_identity_gap"] = worst
    return _report("sobolev-sharp", model.model_id, samples, tolerance, scale, meta)


def check_sobolev_embedding(model, oracle, suite,
                            tolerance: Tolerance = Tolerance(1e-12, 0.01)) -> MarginReport:
    """Polynomial-decay Sobolev embedding ||f||_{2n/(n-2)} <= C ||sqrt(Gamma f)||_2.

    The constant comes from the flat on-diagonal kernel bound
    p(t) <= (4 pi t)^{-n/2}; it is not sharp, so the margin has genuine slack.
    Needs n > 2 and compactly supported (bump-like) fields.
    """
    n = float(oracle.dim)
    if n <= 2:
        raise NotApplicableError("embedding form needs n > 2")
    c_kernel = (4 * np.pi) ** (-n / 2)
    const = 2 ** (1 - 1 / n) * 2 * n * c_kernel ** (1 / n) / ((n - 2) * np.sqrt(np.pi))
    p_crit = 2 * n / (n - 2)
    samples = []
    for nf in suite:
        lhs = model.norm(nf.field, p_crit)
        grad = float(np.sqrt(model.mu @ carre_du_champ(model, nf.field).values))
        rhs = const * grad
        samples.append(_row(lhs, rhs, margin=_norm_margin(lhs, rhs), field=nf.name))
    return _report("sobolev-embedding", model.model_id, samples, tolerance, 1.0,
                   {"constant": const, "p": p_crit, "kernel_C": c_kernel})


def check_isoperimetric_balls(model, oracle, centers, radii,
                              expected_ratio: float | None = None,
                              tolerance: Tolerance = Tolerance(1e-12, 0.0, mesh_order=1)
                              ) -> MarginReport:
    """mu(B)^((n-1)/n) <= C P(B) on metric balls, with the fitted C.

    Ball perimeters use the coarea rate dV/dr, which matches the perimeter
    of smooth metric balls (the cut-edge perimeter measures the anisotropic
    projected boundary and is reported alongside).  Volumes and perimeters
    are averaged over centers before fitting to wash out staircase noise,
    and recorded per radius in the metadata ``series``.  The fitted ratio
    must stay constant in r within 12% and, when ``expected_ratio`` is
    given, match it within 6%.
    """
    n = float(oracle.dim)
    constancy_rtol, value_rtol = 0.12, 0.06
    radii = np.asarray(radii, dtype=float)
    # the coarea shell must span a few mesh cells or the staircase dominates
    dr = np.maximum(0.05 * radii, 1.5 * float(model.meta["h"]))
    vols = np.zeros_like(radii)
    cper = np.zeros_like(radii)
    xper = np.zeros_like(radii)
    # the balls and the inner and outer balls of their shells, from one sort
    r_all = np.unique(np.concatenate([radii, radii - dr, radii + dr]))
    for x in centers:
        d = distance_field(model, oracle, x).values
        vol = dict(zip(r_all, ball_volumes(model, d, r_all)))
        vols += [vol[r] for r in radii]
        cper += [(vol[r + w] - vol[r - w]) / (2 * w) for r, w in zip(radii, dr)]
        xper += [discrete_perimeter(model, d <= r) for r in radii]
    vols /= len(centers)
    cper /= len(centers)
    xper /= len(centers)
    vpow = vols ** ((n - 1) / n)
    ratio = vpow / cper
    spread = float((ratio.max() - ratio.min()) / ratio.mean())
    samples = [_row(spread, constancy_rtol, quantity="ratio-constancy")]
    meta = {"fitted_C3": float(ratio.max()), "ratio_mean": float(ratio.mean()),
            "spread": spread,
            "cut_perimeters": [float(p) for p in xper],
            "series_columns": ["r", "volume_power", "coarea_perimeter", "ratio"],
            "series": [[float(r), float(v), float(p), float(q)]
                       for r, v, p, q in zip(radii, vpow, cper, ratio)]}
    if expected_ratio is not None:
        gap = float(abs(ratio.mean() / expected_ratio - 1.0))
        samples.append(_row(gap, value_rtol, quantity="ratio-value"))
        meta["expected_ratio"] = expected_ratio
    return _report("isoperimetric-balls", model.model_id, samples, tolerance,
                   1.0, meta)


def diameter_bound(p: float, A: float) -> float:
    """Compactness bound pi sqrt(2 p A) / (p - 2) from the p-norm inequality.

    Scale-invariance reduction: rescaling the metric by c maps the
    inequality constant A to A/c^2, so the bound must be pi at the
    normalized constant 4/(n_p (n_p - 2)) with n_p = 2p/(p-2); solving
    gives the stated expression (also the form the sharp positive-curvature
    family saturates on round spheres).
    """
    if p <= 2:
        raise ValueError("needs p > 2")
    return np.pi * np.sqrt(2 * p * A) / (p - 2)


def check_diameter(model, oracle, tolerance: Tolerance = Tolerance(1e-12, 0.0)
                   ) -> MarginReport:
    """Diameter corollary of the verified sharp Sobolev constant at p = 40;
    the bound must come within 5% of the diameter (Myers equality)."""
    p, myers_rtol = 40.0, 0.05
    rho, n = oracle.ricci_lower, float(oracle.dim)
    if rho <= 0:
        raise NotApplicableError("diameter bound needs rho > 0")
    A = (n - 1) * (p - 2) / (n * rho)
    bound = diameter_bound(p, A)
    diam = oracle.diameter
    gap = abs(bound / diam - 1.0)
    samples = [_row(diam, bound, quantity="bound-dominates"),
               _row(gap, myers_rtol, quantity="myers-equality")]
    return _report("diameter-bound", model.model_id, samples, tolerance, 1.0,
                   {"p": p, "A": A, "bound": float(bound), "diameter": float(diam)})


# ---------------------------------------------------------------------------
# kernel laws and spectra (structural semigroup checks)


def check_kernel_laws(model, spectral: SpectralData,
                      tolerance: Tolerance = Tolerance(1e-8)) -> MarginReport:
    """Symmetry, Chapman-Kolmogorov, and the flow against the eigen-expansion.

    The composition law is checked on 64 probe nodes at (t, s) = (0.3, 0.7)
    and (0.5, 0.5): integrating the kernel block against itself with the mu
    weights must reproduce the kernel at the summed time.  For a random
    field in the retained span the eigen-expansion of P_t is exact, so at
    t = 0.1 the exact flow must agree with it within 1e-4 (the
    ``cross-engine`` row).  The probe nodes and the field's coefficients
    are drawn from ``PROBE_SEED``.
    """
    rng = np.random.default_rng(PROBE_SEED)
    probe = np.sort(rng.choice(model.n_nodes, size=min(64, model.n_nodes),
                               replace=False))
    samples = []
    full = slice(None)                      # every node, without a gather
    for (t, s) in ((0.3, 0.7), (0.5, 0.5)):
        Kt = heat_kernel_block(spectral, t, probe, full)
        Ks = heat_kernel_block(spectral, s, full, probe)
        Kts = heat_kernel_block(spectral, t + s, probe, probe)
        comp = Kt @ (model.mu[:, None] * Ks)
        samples += [
            _row(np.max(np.abs(comp - Kts)), 0.0, law="chapman-kolmogorov",
                 t=float(t), s=float(s)),
            _row(np.max(np.abs(Kts - Kts.T)), 0.0, law="symmetry", t=float(t + s)),
            _row(-min(0.0, Kts.min()), 0.0, law="positivity", t=float(t + s))]
    cross_t, cross_tol = 0.1, 1e-4
    coef = rng.standard_normal(spectral.count)
    f = model.field(spectral.eigenfields @ coef)
    a = spectral.eigenfields @ (np.exp(-spectral.eigenvalues * cross_t) * coef)
    b = apply_semigroup(model, f, cross_t).values
    gap = float(np.max(np.abs(a - b)))
    samples.append(_row(gap, cross_tol, law="cross-engine", t=float(cross_t)))
    return _report("kernel-laws", model.model_id, samples, tolerance, 1.0,
                   {"cross_engine_sup_diff": gap})


def check_spectrum(model, oracle, spectral: SpectralData, count: int = 5,
                   rtol: float = 0.02,
                   tolerance: Tolerance = Tolerance(1e-12, 0.0)) -> MarginReport:
    """The ``count`` lowest retained eigenvalues against the closed-form spectrum."""
    if oracle.exact_eigenvalues is None:
        raise NotApplicableError("oracle has no closed-form spectrum")
    if count > spectral.count:
        raise NotApplicableError(f"count: {count} exceeds the {spectral.count} retained pairs")
    lam = spectral.eigenvalues[:count]
    ref = np.asarray(oracle.exact_eigenvalues(count), dtype=float)
    samples = [_row(abs(a - b) / max(abs(b), 1.0), rtol, k=k, discrete=float(a),
                    exact=float(b)) for k, (a, b) in enumerate(zip(lam, ref))]
    return _report("spectrum", model.model_id, samples, tolerance, 1.0,
                   {"rtol": rtol, "count": count})


# ---------------------------------------------------------------------------
# distances


def check_distance_sandwich(model, oracle, pair_sample,
                            tolerance: Tolerance | None = None) -> MarginReport:
    """Dual lower bounds never exceed graph distances (plus slack).

    ``pair_sample`` holds the (x, y) node pairs; a pair with x == y is
    skipped, as it compares nothing.  The dual bounds the discrete intrinsic distance, which can exceed the
    model's distance by O(h).  Where the oracle has a closed-form distance,
    each row also records it, read from the memoized field that the dual
    starts from, and the metadata records the lattice overestimation factor,
    graph over oracle on the rows at least 3 h apart (report-only; it never
    alters bounds).
    """
    h = float(model.meta["h"])
    tolerance = tolerance or Tolerance(2 * h, 0.02, mesh_order=1)
    samples = []
    scale = 0.0
    for x, y in pair_sample:
        if x == y:
            continue
        dc = dual_distance(model, oracle, x, y)
        g = float(distance_field(model, None, y).values[x])
        scale = max(scale, g)
        s = _row(dc.value, g, x=x, y=y, feasibility=dc.feasibility)
        if oracle.exact_distance is not None:
            s["oracle"] = float(distance_field(model, oracle, y).values[x])
        samples.append(s)
    meta = {"n_pairs": len(pair_sample)}
    if oracle.exact_distance is not None:
        ratios = np.array([s["rhs"] / s["oracle"] for s in samples
                           if s["oracle"] >= 3 * h])
        meta["anisotropy"] = {"n_pairs": int(ratios.size)}
        if ratios.size:
            meta["anisotropy"].update(max_ratio=float(ratios.max()),
                                      mean_ratio=float(ratios.mean()))
    return _report("distance-sandwich", model.model_id, samples, tolerance,
                   scale, meta)


def check_subunit_oracle(model) -> MarginReport:
    """The Heisenberg subunit length on the axes, against the geodesics there.

    Vertical targets (0, 0, z), z = 0.04 and 0.09, are reached by a full
    circle of length 2 sqrt(pi |z|) and the horizontal target (0.3, 0, 0)
    by a segment of length 0.3; ``subunit_distance_heisenberg`` must match
    each within 2%.
    """
    rtol, samples = 0.02, []
    axes = [("z", z, [0.0, 0.0, z], 2 * np.sqrt(np.pi * z)) for z in (0.04, 0.09)]
    for axis, value, target, ref in axes + [("x", 0.3, [0.3, 0.0, 0.0], 0.3)]:
        length = subunit_distance_heisenberg(target)
        gap = abs(length - ref) / ref
        samples.append(_row(length, ref, margin=rtol - gap, relative_gap=float(gap),
                            **{axis: value}))
    return _report("subunit-oracle", model.model_id, samples,
                   Tolerance(0.0, 0.0), 1.0, {"rtol": rtol})
