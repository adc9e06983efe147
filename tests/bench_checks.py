"""Microbenchmarks of a curvature check and of dual ascent (pytest-benchmark).

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/bench_checks.py --benchmark-only

The default test run collects only ``test_*.py`` files, so these run only
when named.  Pin the BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to
compare runs across commits.
"""
import numpy as np
import pytest

from heatlab import ModelSpec, build_model, node_nearest
from heatlab.checks import check_cd
from heatlab.metric import dual_distance
from heatlab.suites import sub_riemannian_suite


@pytest.fixture(scope="module")
def heis():
    model, oracle = build_model(
        ModelSpec("heisenberg", dim=3, resolution=21, extent=1.25,
                  options={"z_extent": 0.15625}))
    return model, oracle


@pytest.fixture(scope="module")
def euclid2():
    return build_model(ModelSpec("euclidean", dim=2, resolution=48, extent=1.5))


def test_cd_generalized_heis(benchmark, heis):
    # the campaign's cd-generalized-heis: four nu values over one suite
    model, oracle = heis
    suite = sub_riemannian_suite(model)
    rep = benchmark(check_cd, model, oracle, suite,
                    mode="generalized", nu_grid=[0.5, 1.0, 2.0, 8.0])
    assert len(rep.samples) == 4 * len(suite)


def test_dual_distance_euclid2(benchmark, euclid2):
    # the oracle's distance field to y, the dual's start, is kept on the
    # model after the first round, so the rounds after it time the
    # smoothing and the dual ascent alone
    model, oracle = euclid2
    x = node_nearest(model, [-0.6, 0.4])
    y = node_nearest(model, [0.5, -0.3])
    cert = benchmark(dual_distance, model, oracle, x, y)
    assert 0 < cert.value <= np.abs(model.nodes[x] - model.nodes[y]).sum()
