"""Kernel microbenchmarks of the eigensolver (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_eigensolve.py --benchmark-only

``spectral_decompose`` takes the structured route on the models that
``build_model`` marks (grids and the sphere), shift-invert ``eigsh`` on
other models when N > 10 k and a dense subset solve otherwise; the
structured benchmarks run on built models, and the generic ones on an
unmarked copy of the same operator (``neumann_restrict`` to every node).
The default test run collects only ``test_*.py`` files, so these run only
when named.  Pin the BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to
compare runs across commits.
"""
import numpy as np
import pytest

from heatlab import ModelSpec, build_model, neumann_restrict, spectral_decompose


@pytest.fixture(scope="module")
def sphere48():
    model, _ = build_model(ModelSpec("sphere", dim=2, resolution=48))
    return model


@pytest.fixture(scope="module")
def euclid2():
    model, _ = build_model(
        ModelSpec("euclidean", dim=2, resolution=48, extent=1.5))
    return model


def _unmarked(model):
    return neumann_restrict(model, np.arange(model.n_nodes))


def test_structured_sphere48_k300(benchmark, sphere48):
    sd = benchmark.pedantic(spectral_decompose, args=(sphere48, 300), rounds=3)
    assert sd.count == 300 and sd.residual < 1e-8


def test_structured_euclid2_k500(benchmark, euclid2):
    sd = benchmark.pedantic(spectral_decompose, args=(euclid2, 500), rounds=3)
    assert sd.count == 500 and sd.residual < 1e-8


def test_eigsh_sphere48_k300(benchmark, sphere48):
    model = _unmarked(sphere48)
    assert model.n_nodes > 10 * 300
    sd = benchmark.pedantic(spectral_decompose, args=(model, 300), rounds=3)
    assert sd.count == 300 and sd.residual < 1e-8


def test_dense_euclid2_k500(benchmark, euclid2):
    model = _unmarked(euclid2)
    assert model.n_nodes <= 10 * 500
    sd = benchmark.pedantic(spectral_decompose, args=(model, 500), rounds=3)
    assert sd.count == 500 and sd.residual < 1e-8
