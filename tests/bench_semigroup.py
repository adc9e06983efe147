"""Kernel microbenchmarks of semigroup application (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_semigroup.py --benchmark-only

One white-noise field evolved by the exact ``ExpmFlow`` (the engine of
every model without a retained spectrum and ``kernel-laws``' second
route) and by the ``CrankNicolson`` reference stepper, on ``heis`` at
Heisenberg campaign times (0.25 is 16 h^2, the noise time of the CD
suites; at 1.0 the flow's degree is largest), and on ``torus1`` and the
latitude spheres of ``sphere-refine`` (lat32, lat48; ``ExpmFlow`` takes
the longitude-block route there) at ``kernel-laws``' cross-check time.
Each timed call builds the engine and evolves the field, as
``kernel-laws`` does once per model; the sphere's longitude blocks, which
the model keeps in ``meta``, are dropped before each round, so every
round builds them.  The default test run
collects only ``test_*.py`` files, so these run only when named.  Pin the
BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to compare runs across
commits.
"""
import functools

import numpy as np
import pytest

from heatlab import CrankNicolson, ExpmFlow, ModelSpec, build_model

MODELS = {
    "heis": ModelSpec("heisenberg", dim=3, resolution=21, extent=1.25,
                      options={"z_extent": 0.15625}),
    "torus1": ModelSpec("torus", dim=1, resolution=64),
    "sphere32": ModelSpec("sphere", dim=2, resolution=32),
    "sphere48": ModelSpec("sphere", dim=2, resolution=48),
}
ENGINES = {
    "expm": ExpmFlow,
    "cn": lambda model: CrankNicolson(model, base_steps=32, richardson_tol=1e-6),
}


@functools.cache
def noise(name):
    model, _ = build_model(MODELS[name])
    return model, model.field(np.random.default_rng(0).standard_normal(model.n_nodes))


def forget_blocks(model):
    model.derived.pop("_sphere_blocks", None)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name, t", [("heis", 0.02), ("heis", 0.2), ("heis", 0.25),
                                     ("heis", 1.0), ("torus1", 0.1),
                                     ("sphere32", 0.1), ("sphere48", 0.1)])
def test_evolve(benchmark, engine, name, t):
    model, f = noise(name)
    out = benchmark.pedantic(lambda: ENGINES[engine](model).evolve(f, t),
                             setup=lambda: forget_blocks(model), rounds=5)
    assert abs(model.integrate(out) - model.integrate(f)) < 1e-8
