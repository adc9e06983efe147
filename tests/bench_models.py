"""Microbenchmarks of model assembly (pytest-benchmark).

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/bench_models.py --benchmark-only

Times ``build_model`` on the default campaign's two Heisenberg lattices,
``heis`` (N = 9,161) and ``heis-hd`` (N = 262,285).  One extra build per
model runs under ``tracemalloc`` and records in ``extra_info`` its traced
peak, the bytes still allocated once it returns (what the model keeps) and
their ratio; ``tests/test_models.py`` bounds that ratio by 1.3.  The build
assembles no Laplacian: ``test_first_laplacian`` times the first
``model.L`` of a fresh build (assembly and its Gamma self-test) apart from
it, and records the bytes that L adds.  The default test run collects only
``test_*.py`` files, so these run only when named.
"""
import tracemalloc

import pytest

from heatlab import build_model
from heatlab.cli import default_config


@pytest.mark.parametrize("name", ["heis", "heis-hd"])
def test_build_heisenberg(benchmark, name):
    spec = default_config().models[name]
    model, _ = benchmark.pedantic(build_model, args=(spec,), rounds=5)
    tracemalloc.start()
    try:
        traced, _ = build_model(spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced.n_nodes == model.n_nodes
    benchmark.extra_info.update(n_nodes=model.n_nodes, peak_mb=peak / 1e6,
                                retained_mb=retained / 1e6,
                                peak_over_retained=peak / retained)


@pytest.mark.parametrize("name", ["heis", "heis-hd"])
def test_first_laplacian(benchmark, name):
    spec = default_config().models[name]
    L = benchmark.pedantic(lambda model: model.L,
                           setup=lambda: ((build_model(spec)[0],), {}), rounds=5)
    model, _ = build_model(spec)
    tracemalloc.start()
    try:
        model.L
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert L.shape == (model.n_nodes, model.n_nodes)
    benchmark.extra_info.update(nnz=L.nnz, peak_mb=peak / 1e6, retained_mb=retained / 1e6)
