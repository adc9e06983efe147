"""Acceptance gate: one test per criterion, each printing its margin line.

Tolerances are pinned here, not configured elsewhere; every quantitative
target carries its stated slack next to the assertion.
"""
import csv
import json
import os
import time
import weakref

import numpy as np
import pytest

from heatlab import (
    ModelSpec,
    build_model,
    check_operator_axioms,
    eigenvalue_clusters,
    neumann_restrict,
    node_nearest,
    spectral_decompose,
    subunit_distance_heisenberg,
)
from heatlab.checks import (
    check_cd,
    check_distance_sandwich,
    check_gradient_bound,
    check_harnack,
    check_isoperimetric_balls,
    check_kernel_bounds,
    check_kernel_laws,
    check_li_yau,
    check_log_sobolev,
    check_sobolev_embedding,
    check_sobolev_sharp,
    check_spectral_gap,
    check_spectrum,
    check_vertical_commutation,
    check_volume_regularity,
    harnack_dimension,
    poincare_margin,
    sharp_sobolev_sides,
    span_cd_margin,
)
from heatlab.cli import sample_harnack_pairs, sample_node_pairs
from heatlab.reports import Tolerance, compare_digests, run_digest
from heatlab.suites import (
    NamedField,
    bump_fields,
    eigen_fields,
    horizontal_bump_fields,
    latitude_profiles,
    positive_fields,
    sub_riemannian_suite,
)

# every report of the default campaign (seed 42), from scripts/compare_runs.py --save
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "default-seed42.json")


def _line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_operator_axioms(torus1, euclid1, euclid2, euclid3, sphere, heis):
    t0 = time.monotonic()
    models = [torus1[0], euclid1[0], euclid2[0], euclid3[0], sphere[0], heis[0]]
    worst = 0.0
    for model in models:
        rep = check_operator_axioms(model, tolerance=Tolerance(1e-10))
        worst = max(worst, -rep.min_margin)
        assert rep.passed, (model.model_id, rep.worst_sample())
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    assert _line("criterion-1 operator axioms",
                 ok, f"worst residual {worst:.2e}, runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_kernel_laws(torus1, sphere):
    t0 = time.monotonic()
    for model, _, spectral in (torus1, sphere):
        rep = check_kernel_laws(model, spectral, tolerance=Tolerance(1e-8))
        assert rep.passed, rep.worst_sample()
        assert rep.metadata["cross_engine_sup_diff"] < 1e-4
    elapsed = time.monotonic() - t0
    assert _line("criterion-2 kernel laws", elapsed < 60.0,
                 f"symmetry+composition < 1e-8, cross-engine < 1e-4, "
                 f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_3_spectra(torus1, sphere, euclid1):
    t0 = time.monotonic()
    r1 = check_spectrum(*torus1, count=5, rtol=0.01)
    assert r1.passed
    lam = sphere[2].eigenvalues
    mult3 = np.all(np.abs(lam[1:4] - 2.0) <= 0.04) and abs(lam[4] - 6.0) < 0.5
    assert mult3
    model, _, _ = euclid1
    sub = neumann_restrict(model, np.abs(model.nodes[:, 0]) <= 0.5)
    sd = spectral_decompose(sub, k=3)
    length = sub.n_nodes * model.meta["h"]
    gap = abs(sd.eigenvalues[1] * length**2 / np.pi**2 - 1)
    assert gap < 0.01
    elapsed = time.monotonic() - t0
    assert _line("criterion-3 spectra", elapsed < 60.0,
                 f"torus 1%, sphere gap triple 2%, interval pi^2 gap {gap:.4f} "
                 f"(< 1%), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_4_cd_suite(sphere, euclid2, heis):
    model, oracle, spectral = sphere
    rep = check_cd(model, oracle, eigen_fields(model, spectral, seed=0),
                   mode="riemannian", tolerance=Tolerance(1e-12, 0.02))
    assert rep.passed, rep.worst_sample()

    emodel, eoracle, _ = euclid2
    f = emodel.field(0.5 * np.sum(emodel.nodes**2, axis=1))
    erep = check_cd(emodel, eoracle, [NamedField("half-square-norm", f)],
                    mode="riemannian", equality_fields=("half-square-norm",),
                    tolerance=Tolerance(1e-9, 1e-9))
    assert erep.passed

    hmodel, horacle = heis
    vals = []
    for seed in (5, 77):
        suite = sub_riemannian_suite(hmodel, seed=seed)
        hrep = check_cd(hmodel, horacle, suite, mode="scan",
                        nu_grid=np.geomspace(0.25, 64, 10))
        vals.append(hrep.metadata["rho1_scan"])
        assert vals[-1] >= -0.02
    repro = abs(vals[0] - vals[1]) <= 0.01 * max(1.0, abs(vals[0]))
    assert repro
    assert _line("criterion-4 curvature-dimension",
                 True, f"sphere min rel margin {rep.min_margin / rep.scale:+.4f} "
                       f"(tol 0.02), flat equality exact, scanned rho1 = "
                       f"{vals[0]:.4f} (seeds agree to {abs(vals[0]-vals[1]):.1e})")


def test_criterion_5_li_yau(euclid2, sphere, heis):
    model, oracle, spectral = euclid2
    i0 = node_nearest(model, [0.0, 0.0])
    delta = np.zeros(model.n_nodes)
    delta[i0] = 1.0 / model.mu[i0]
    suite = [NamedField("point-source", model.field(delta))]
    suite += bump_fields(model, centers=[i0], width=0.25)
    rep = check_li_yau(model, oracle, suite, [0.05, 0.1, 0.2],
                       mode="rho0", saturation_fields=("point-source",),
                       saturation_rtol=0.01,
                       tolerance=Tolerance(1e-12, 0.03))
    assert rep.passed, rep.worst_sample()
    sat = [s for s in rep.samples if s["field"].endswith("|saturation")][0]

    smodel, soracle, sspectral = sphere
    psuite = positive_fields(smodel, sspectral)[:3]
    ra = check_li_yau(smodel, soracle, psuite, [0.25, 0.5, 1.0],
                      mode="general-alpha", alpha=1.0,
                      tolerance=Tolerance(1e-12, 0.03))
    assert ra.passed
    rb = check_li_yau(smodel, soracle, psuite, [2.0, 3.0],
                      mode="bakry-qian")
    assert rb.passed

    hmodel, horacle = heis
    hsuite = horizontal_bump_fields(hmodel, widths=(0.5, 0.8))
    rh = check_li_yau(hmodel, horacle, hsuite, [0.01, 0.02, 0.05],
                      mode="sub-riemannian", alpha=3.0)
    assert rh.passed
    assert _line("criterion-5 li-yau family", True,
                 f"flat saturation gap {sat['lhs']:.3f} (allowed {sat['rhs']:.3f}), "
                 f"sphere alpha=1 min {ra.min_margin:+.3f}, "
                 f"vertical-form alpha=3 min {rh.min_margin:+.1f}")


def test_criterion_6_harnack_kernel_bounds(euclid2, sphere, heis):
    model, oracle, spectral = euclid2
    i0 = node_nearest(model, [0.0, 0.0])

    # sharp flat comparison: the kernel lower bound is an equality
    near = [node_nearest(model, p) for p in ([0.2, 0.1], [-0.15, 0.2], [0.0, 0.3])]
    pairs = [(i0, j, t) for j in near for t in (0.05, 0.1)]
    rk = check_kernel_bounds(model, oracle, spectral, pair_sample=pairs, centers=[i0],
                             radii=[0.3, 0.4, 0.5, 0.6], equality_expected=True)
    assert rk.passed, rk.worst_sample()
    prod = rk.metadata["ondiag_upper_C"]
    assert abs(prod - 0.25) < 0.05 * 0.25

    delta = np.zeros(model.n_nodes)
    delta[i0] = 1.0 / model.mu[i0]
    hpairs = sample_harnack_pairs(model, 200, [0.05, 0.1], [0.05, 0.1], seed=3)
    rh = check_harnack(model, oracle, [NamedField("point-source", model.field(delta))] +
                       bump_fields(model, centers=[i0], width=0.3), hpairs,
                       tolerance=Tolerance(1e-12, 0.02))
    assert rh.passed

    smodel, soracle, sspectral = sphere
    spairs = sample_harnack_pairs(smodel, 200, [0.1, 0.2], [0.1, 0.3], seed=4)
    rs = check_harnack(smodel, soracle, bump_fields(smodel, seed=4),
                       spairs, tolerance=Tolerance(1e-12, 0.02))
    assert rs.passed

    assert harnack_dimension(3.0, 0.0, 0.5, 2.0) == pytest.approx(2.0)
    hmodel, horacle = heis
    hpairs2 = sample_harnack_pairs(hmodel, 60, [0.02, 0.04], [0.02, 0.05], seed=5)
    rsub = check_harnack(hmodel, horacle, horizontal_bump_fields(hmodel, widths=(0.5, 0.8)),
                         hpairs2, mode="sub-riemannian",
                         tolerance=Tolerance(1e-12, 0.02))
    assert rsub.passed
    assert _line("criterion-6 harnack + kernel bounds", True,
                 f"flat equality gap within 5%, on-diag product {prod:.4f} "
                 f"(1/4 within 5%), 200-pair margins pass, D_3(kappa=0) = n")


def test_criterion_7_volume(euclid2, sphere):
    model, oracle, _ = euclid2
    i0 = node_nearest(model, [0, 0])
    rep = check_volume_regularity(model, oracle, [i0], [0.3, 0.45, 0.6],
                                  ratio_window=(3.7, 4.3),
                                  tolerance=Tolerance(1e-12, 0.0))
    assert rep.passed
    assert rep.metadata["oracle_small_ratio"] == pytest.approx(4.0)  # 2^n exact

    smodel, soracle, _ = sphere
    pole = node_nearest(smodel, [0, 0, 1])
    h = smodel.meta["h"]
    srep = check_volume_regularity(smodel, soracle, [pole],
                                   (np.array([4, 5, 7]) + 0.5) * h,
                                   monotone_upper=4.0,
                                   tolerance=Tolerance(1e-12, 0.06))
    assert srep.passed
    oracle_up = [s for s in srep.samples if s["part"] == "ratio-upper-oracle"][0]
    assert oracle_up["margin"] >= 0.0

    hd_model, hd_oracle = build_model(
        ModelSpec("heisenberg", dim=3, resolution=49, extent=1.3,
                  options={"z_extent": 0.16}))
    c0 = node_nearest(hd_model, [0, 0, 0])
    hh = hd_model.meta["h"]
    hrep = check_volume_regularity(hd_model, hd_oracle, [c0],
                                   (np.arange(5, 10) + 0.49) * hh,
                                   ratio_window=(14.0, 18.0))
    assert hrep.passed, hrep.worst_sample()
    assert 0 < hrep.metadata["chart_ball_envelope_C"] < np.inf
    q_fit = hrep.metadata["growth_exponent_fit"]
    q_dbl = hrep.metadata["Q_from_doubling"]
    assert _line("criterion-7 volume doubling", True,
                 f"flat ratio exactly 4 (closed form) and empirical in [3.7, 4.3]; "
                 f"sphere ratios <= 4; group lattice ratios in [14, 18], "
                 f"exponent fit {q_fit:.2f} vs log2(C) {q_dbl:.2f} (10%)")


def test_criterion_8_functional_inequalities(sphere):
    model, oracle, spectral = sphere
    rep = check_spectral_gap(model, oracle, spectral,
                             tolerance=Tolerance(1e-12, 0.02))
    assert rep.passed
    lam1 = rep.metadata["lambda1"]
    assert abs(lam1 / 2.0 - 1.0) < 0.02       # sharp gap equality

    suite = positive_fields(model, spectral)
    rl = check_log_sobolev(model, oracle, suite,
                           tolerance=Tolerance(1e-12, 0.02))
    assert rl.passed
    slope = rl.metadata["entropy_slope"]
    assert slope <= -2.0 + 0.05

    rg = check_gradient_bound(model, oracle,
                              eigen_fields(model, spectral, seed=2),
                              [0.1, 0.5, 1.0], tolerance=Tolerance(1e-12, 0.02))
    assert rg.passed
    assert _line("criterion-8 functional inequalities", True,
                 f"gap {lam1:.4f} (sharp 2 within 2%), entropy slope {slope:.2f} "
                 f"(<= -1.95), gradient bound min {rg.min_margin:+.4f}")


def test_criterion_9_sobolev_diameter(euclid3, euclid2, sphere):
    model, oracle = euclid3
    i0 = node_nearest(model, [0, 0, 0])
    rv = check_sobolev_embedding(model, oracle,
                                 bump_fields(model, centers=[i0], width=0.25))
    assert rv.passed
    expected_const = (2 ** (1 - 1 / 3) * 6 * ((4 * np.pi) ** -1.5) ** (1 / 3)
                      / np.sqrt(np.pi))
    assert rv.metadata["constant"] == pytest.approx(expected_const)

    emodel, eoracle, _ = euclid2
    centers = [node_nearest(emodel, c) for c in
               ([0, 0], [0.2, 0.1], [-0.15, 0.25], [0.1, -0.2], [-0.05, -0.12])]
    ri = check_isoperimetric_balls(emodel, eoracle, centers,
                                   [0.3, 0.4, 0.5, 0.6],
                                   expected_ratio=1 / (2 * np.sqrt(np.pi)))
    assert ri.passed

    smodel, soracle, sspectral = sphere
    psuite = positive_fields(smodel, sspectral)
    pole = node_nearest(smodel, [0, 0, 1])
    rs = check_sobolev_sharp(smodel, soracle, psuite,
                             extremal_suite=latitude_profiles(smodel, pole, 40.0),
                             tolerance=Tolerance(1e-12, 0.02))
    assert rs.passed

    # p = 1 member reproduces the Poincare margin identically
    worst = 0.0
    n, rho = 2.0, 1.0
    for nf in psuite:
        v = nf.field.values / np.max(np.abs(nf.field.values))
        lhs, rhs = sharp_sobolev_sides(smodel, soracle, v, 1.0)
        pm = poincare_margin(smodel, smodel.field(v), (n - 1) / (n * rho),
                             absolute=True)
        worst = max(worst, abs((rhs - lhs)
                               - (n * rho / (n - 1)) * pm / smodel.total_measure))
    assert worst < 1e-8

    from heatlab.checks import check_diameter
    rd = check_diameter(smodel, soracle)
    assert rd.passed
    bound = rd.metadata["bound"]
    assert bound >= np.pi and abs(bound / np.pi - 1) < 0.05
    assert _line("criterion-9 sobolev + diameter", True,
                 f"embedding margin {rv.min_margin:+.2f}, disk ratio "
                 f"{ri.metadata['ratio_mean']:.4f} vs {1/(2*np.sqrt(np.pi)):.4f}, "
                 f"p=1 identity gap {worst:.1e} (< 1e-8), "
                 f"diameter bound {bound:.4f} >= pi within 5%")


def test_criterion_10_distances(torus1, euclid2, sphere, heis):
    for bundle in (torus1, euclid2, sphere):
        model, oracle = bundle[0], bundle[1]
        rep = check_distance_sandwich(model, oracle, sample_node_pairs(model, 50, seed=6))
        assert rep.passed, model.model_id
    hmodel, horacle = heis
    hrep = check_distance_sandwich(hmodel, horacle, sample_node_pairs(hmodel, 50, seed=6))
    assert hrep.passed

    worst = 0.0
    for z in (0.04, 0.09):
        length = subunit_distance_heisenberg([0, 0, z])
        ref = 2 * np.sqrt(np.pi * z)
        worst = max(worst, abs(length - ref) / ref)
    assert worst < 0.02

    suite = [NamedField("xz", hmodel.field(hmodel.nodes[:, 0] * hmodel.nodes[:, 2]))]
    suite += horizontal_bump_fields(hmodel, widths=(0.5,))
    rv = check_vertical_commutation(hmodel, suite,
                                    tolerance=Tolerance(1e-12, 0.08))
    assert rv.passed
    assert _line("criterion-10 distances", True,
                 f"dual <= graph on 50 pairs x 4 models, vertical geodesic "
                 f"gap {worst:.4f} (< 2%), commutation residual "
                 f"{-rv.min_margin:.2e} (< 0.08)")


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """(config, exit code, seconds, the models other than its own that are
    still alive when ``volume-heis`` starts) of one default campaign run."""
    from heatlab import cli

    models, alive_at_heis = {}, []

    def watched(runner):
        def run(ctxs, spec, cfg, name):
            if name == "volume-heis":
                alive_at_heis.extend(m for m, ref in models.items() if ref() is not None)
            rep = runner(ctxs, spec, cfg, name)
            models[spec["model"]] = weakref.ref(ctxs[spec["model"]].model)
            return rep
        return run

    runners = dict(cli.CHECK_RUNNERS)
    cli.CHECK_RUNNERS.update({cid: watched(r) for cid, r in runners.items()})
    tmp = tmp_path_factory.mktemp("default")
    t0 = time.monotonic()
    cfg = cli.default_config()
    cfg.output_dir = os.path.join(tmp, "run1")
    cfg.cache_dir = os.path.join(tmp, "cache")
    try:
        rc = cli.run_campaign(cfg, log=lambda *a: None)
    finally:
        cli.CHECK_RUNNERS.update(runners)
    return cfg, rc, time.monotonic() - t0, alive_at_heis


def test_criterion_11_determinism_and_runtime(default_run, tmp_path):
    from heatlab.cli import default_config, run_campaign

    cfg, rc1, elapsed, _ = default_run
    # the golden digest holds every report of this run at an earlier commit;
    # margins move by roundoff only (1e-15 of scale across BLAS thread counts)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    moved = [row for row in compare_digests(golden, run_digest(cfg.output_dir))
             if row[1] != row[2] or not row[3] <= 1e-9]
    assert not moved, f"(report, golden verdict, verdict, move / scale): {moved}"
    assert rc1 == 0
    assert elapsed < 300.0

    cfg2 = default_config()
    cfg2.output_dir = os.path.join(tmp_path, "run2")
    cfg2.cache_dir = cfg.cache_dir
    rc2 = run_campaign(cfg2, log=lambda *a: None)
    assert rc2 == 0

    names = sorted(os.listdir(cfg.output_dir))
    assert names == sorted(os.listdir(cfg2.output_dir))
    for name in names:
        a = open(os.path.join(cfg.output_dir, name), "rb").read()
        b = open(os.path.join(cfg2.output_dir, name), "rb").read()
        assert a == b, f"output {name} differs between reruns"
    assert _line("criterion-11 determinism + runtime", True,
                 f"campaign {elapsed:.1f}s (< 300s), {len(names)} outputs "
                 f"byte-identical across reruns")


def test_default_summary_cells_parse_as_floats(default_run):
    cfg = default_run[0]
    with open(os.path.join(cfg.output_dir, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.checks)
    for row in rows:
        for column in ("min_margin", "tol_abs", "tol_rel", "scale"):
            float(row[column])          # a numpy repr such as np.float64(...) raises


def test_heis_hd_is_built_after_every_other_model_is_gone(default_run):
    # heis-hd sets the campaign's memory peak; nothing else may add to it
    cfg, alive_at_heis = default_run[0], default_run[3]
    assert cfg.checks["volume-heis"]["model"] == "heis-hd"
    assert alive_at_heis == []


def test_refinement_monotone_margins():
    # min margins must not systematically decrease as resolution increases;
    # compared over the span of the low eigenspaces, not over single fields
    # drawn from them, so the basis inside a degenerate cluster cannot move it
    rel = {}
    for mt in (24, 32):
        model, oracle = build_model(ModelSpec("sphere", dim=2, resolution=mt))
        spectral = spectral_decompose(model, k=60)
        # eigenfields 1..9, the span eigen_fields draws from, end at a cluster edge
        assert 10 in [c[0] for c in eigenvalue_clusters(spectral.eigenvalues)]
        rel[mt] = span_cd_margin(model, oracle, spectral.eigenfields[:, 1:10])
    assert rel[32] >= rel[24] - 0.005
