"""Tests of the benchmark's own correctness checks (a few seconds).

    python3 -m pytest -q bench/test_audit.py

Each check must accept the program's real output on a small model and
reject a deliberately perturbed copy of it.
"""
import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import audit  # noqa: E402
from heatlab.metric import graph_distance  # noqa: E402
from heatlab.models import ModelSpec, build_model, model_hash  # noqa: E402
from heatlab.reports import MarginReport, Tolerance  # noqa: E402
from heatlab.semigroup import save_spectral, spectral_decompose  # noqa: E402


def shifted(values, j, rel):
    out = np.array(values, dtype=float)
    out[j] *= 1 + rel
    return out


@pytest.fixture(scope="module")
def torus():
    model = build_model(ModelSpec("torus", dim=1, resolution=32))[0]
    return model, spectral_decompose(model, k=32)


@pytest.fixture(scope="module")
def box():
    spec = ModelSpec("euclidean", dim=2, resolution=12, extent=1.5)
    model = build_model(spec)[0]
    return spec, model, spectral_decompose(model, k=60)


def test_read_cache_round_trips_the_program_format(torus, tmp_path):
    model, sd = torus
    path = str(tmp_path / "torus-k32.spec")
    save_spectral(path, sd, model_hash(model))
    header, lam = audit.read_cache(path)
    assert header["n"] == 32 and header["k"] == 32
    np.testing.assert_array_equal(lam, sd.eigenvalues)
    with open(path, "r+b") as fh:
        fh.write(b"NOTSPEC!")
    with pytest.raises(ValueError):
        audit.read_cache(path)


def test_torus_closed_form(torus):
    model, sd = torus
    assert audit.torus_eigenvalues(sd.eigenvalues, 32, 2 * math.pi) == []
    assert audit.torus_eigenvalues(shifted(sd.eigenvalues, 7, 1e-6), 32, 2 * math.pi)
    assert audit.torus_eigenvalues(sd.eigenvalues[:-1], 32, 2 * math.pi) == []
    assert audit.torus_eigenvalues(sd.eigenvalues, 33, 2 * math.pi)


def test_neumann_box_closed_form(box):
    spec, model, sd = box
    lam = sd.eigenvalues
    assert audit.neumann_box_eigenvalues(lam, 12, 1.5) == []
    assert audit.neumann_box_eigenvalues(shifted(lam, 41, 1e-6), 12, 1.5)
    assert audit.neumann_box_eigenvalues(lam, 12, 1.4)


def test_graph_distance_is_l1(box):
    spec, model, sd = box
    d = graph_distance(model, 17).values
    assert audit.l1_distances(d, model.nodes, 17) == []
    wrong = d.copy()
    wrong[90] += model.meta["h"]
    assert audit.l1_distances(wrong, model.nodes, 17)


def sphere_spectrum(lmax, wobble=0.005):
    lam = [0.0]
    for l in range(1, lmax + 2):
        ref = l * (l + 1)
        lam += list(ref * (1 + wobble * np.linspace(-1, 1, 2 * l + 1)))
    return np.array(lam)


def test_sphere_clusters():
    lam = sphere_spectrum(4)
    problems, err = audit.sphere_cluster_error(lam, 3)
    assert problems == [] and err == pytest.approx(0.005)
    assert audit.sphere_cluster_error(shifted(lam, 6, 0.03), 3)[0]
    # multiplicity: one l=2 member moved into the l=1 cluster
    merged = np.sort(np.where(np.arange(lam.size) == 4, 2.0, lam))
    assert audit.sphere_cluster_error(merged, 3)[0]
    # the cluster after the last one must not join it
    grown = lam.copy()
    grown[16] = 12.1
    assert audit.sphere_cluster_error(np.sort(grown), 3)[0]
    assert audit.sphere_cluster_error(lam[:10], 3)[0]


def test_errors_shrink():
    assert audit.errors_shrink([0.02, 0.012, 0.005]) == []
    assert audit.errors_shrink([0.02, 0.025, 0.005])
    assert audit.errors_shrink([0.02, 0.02, 0.005])


def test_subunit_lower_bound():
    ref = 2 * math.sqrt(math.pi * 0.04)
    good = [{"z": 0.04, "lhs": ref * 1.01, "rhs": ref}, {"x": 0.3, "lhs": 0.29}]
    assert audit.subunit_lower_bound(good) == []
    bad = copy.deepcopy(good)
    bad[0]["lhs"] = ref * 0.999
    assert audit.subunit_lower_bound(bad)


def real_report():
    samples = [{"lhs": 1.0, "rhs": 1.5, "margin": 0.5},
               {"lhs": 1.0, "rhs": 0.99, "margin": -0.01}]
    rep = MarginReport("demo", "m", samples, min_margin=-0.01,
                       tolerance=Tolerance(0.0, 0.02), scale=1.0)
    return rep.to_json_dict()


def test_report_consistency():
    rep = real_report()
    assert rep["verdict"] == "pass"
    assert audit.report_consistency(rep) == []
    flipped = dict(rep, verdict="fail")
    assert audit.report_consistency(flipped)
    above = dict(rep, min_margin=0.0)          # above the worst sample margin
    assert audit.report_consistency(above)
    nan = copy.deepcopy(rep)
    nan["samples"][0]["margin"] = float("nan")
    assert audit.report_consistency(nan)


def test_warm_cache():
    cached = {"torus1-k64.spec": "torus1d-m64-P6.28319",
              "sphere-k300.spec": "sphere2-lat32"}
    lookups = [("spectrum-torus1", "torus1-k64.spec", True),
               ("kernel-laws-sphere", "sphere-k300.spec", True)]
    solves = [("neumann-cap-sphere", "sphere2-lat32|sub513", 513, 4)]
    assert audit.warm_cache(lookups, solves, cached) == {}
    miss = lookups[:1] + [("kernel-laws-sphere", "sphere-k300.spec", False)]
    assert list(audit.warm_cache(miss, solves, cached)) == ["kernel-laws-sphere"]
    resolve = solves + [("kernel-laws-sphere", "sphere2-lat32", 1986, 300)]
    assert list(audit.warm_cache(lookups, resolve, cached)) == ["kernel-laws-sphere"]
    # a model of the same size as a cached one is no recompute
    same_n = solves + [("other", "euclidean2d-m44-a3", 1986, 4)]
    assert audit.warm_cache(lookups, same_n, cached) == {}
    assert audit.warm_cache([], solves, cached)
