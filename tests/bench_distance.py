"""Kernel microbenchmarks of the distance layer (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_distance.py --benchmark-only

The default test run collects only ``test_*.py`` files, so these run only
when named.  Pin the BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to
compare runs across commits.
"""
import numpy as np
import pytest

from heatlab import ModelSpec, build_model, node_nearest
from heatlab.metric import graph_distance, oracle_distance, subunit_distance_heisenberg


@pytest.fixture(scope="module")
def sphere32():
    model, oracle = build_model(ModelSpec("sphere", dim=2, resolution=32))
    return model, oracle


@pytest.fixture(scope="module")
def euclid2():
    model, _ = build_model(
        ModelSpec("euclidean", dim=2, resolution=48, extent=1.5))
    return model


def test_oracle_distance_sphere32(benchmark, sphere32):
    model, oracle = sphere32
    src = node_nearest(model, [1.0, 0.0, 0.0])
    dist = benchmark(oracle_distance, model, oracle, src)
    assert dist.values.shape == (model.n_nodes,)
    assert dist.values.max() <= np.pi


def test_subunit_vertical_target(benchmark):
    z = 0.04
    length = benchmark(subunit_distance_heisenberg, [0.0, 0.0, z])
    assert length == 2 * np.sqrt(np.pi * z)


def test_subunit_off_axis_target(benchmark):
    # the root solve: |z| / r^2 = 1, turning by about 0.77 pi
    x, y, z = 0.2, -0.1, 0.05
    length = benchmark(subunit_distance_heisenberg, [x, y, z])
    r = np.hypot(x, y)
    assert r <= length <= r + 2 * np.sqrt(np.pi * z)


def test_graph_distance_euclid2(benchmark, euclid2):
    src = node_nearest(euclid2, [0.0, 0.0])
    dist = benchmark(graph_distance, euclid2, src)
    assert np.all(np.isfinite(dist.values))
