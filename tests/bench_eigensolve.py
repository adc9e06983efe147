"""Kernel microbenchmarks of the eigensolver (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_eigensolve.py --benchmark-only

``spectral_decompose`` runs shift-invert ``eigsh`` when N > 10 k and a
dense subset solve otherwise; one benchmark covers each path.  The
default test run collects only ``test_*.py`` files, so these run only
when named.  Pin the BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to
compare runs across commits.
"""
import pytest

from heatlab import ModelSpec, build_model, spectral_decompose


@pytest.fixture(scope="module")
def sphere48():
    model, _, _ = build_model(ModelSpec("sphere", dim=2, resolution=48))
    return model


@pytest.fixture(scope="module")
def euclid2():
    model, _, _ = build_model(
        ModelSpec("euclidean", dim=2, resolution=48, extent=1.5))
    return model


def test_eigsh_sphere48_k300(benchmark, sphere48):
    assert sphere48.n_nodes > 10 * 300
    sd = benchmark.pedantic(spectral_decompose, args=(sphere48, 300), rounds=3)
    assert sd.count == 300 and sd.residual < 1e-8


def test_dense_euclid2_k500(benchmark, euclid2):
    assert euclid2.n_nodes <= 10 * 500
    sd = benchmark.pedantic(spectral_decompose, args=(euclid2, 500), rounds=3)
    assert sd.count == 500 and sd.residual < 1e-8
