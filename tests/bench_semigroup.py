"""Kernel microbenchmarks of semigroup application (pytest-benchmark).

    PYTHONPATH=src python -m pytest tests/bench_semigroup.py --benchmark-only

One white-noise field evolved by the exact flow ``apply_semigroup``
(which evolves every check) and by the ``CrankNicolson`` reference
stepper, on ``heis`` at Heisenberg campaign times (0.25 is 16 h^2, the
noise time of the CD suites; at 1.0 the flow's degree is largest), and on
``torus1`` and the latitude spheres of ``sphere-refine`` (lat32, lat48;
the flow takes the longitude-block route there) at ``kernel-laws``'
cross-check time.  Each timed call
builds the flow's state and evolves the field, as the first
``apply_semigroup`` on a model does: the blocks or the Chebyshev operator
that the model keeps in ``derived`` are dropped before each round.  The
default test run collects only ``test_*.py`` files, so these run only
when named.  Pin the BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to
compare runs across commits.
"""
import functools

import numpy as np
import pytest

from heatlab import CrankNicolson, ModelSpec, apply_semigroup, build_model

MODELS = {
    "heis": ModelSpec("heisenberg", dim=3, resolution=21, extent=1.25,
                      options={"z_extent": 0.15625}),
    "torus1": ModelSpec("torus", dim=1, resolution=64),
    "sphere32": ModelSpec("sphere", dim=2, resolution=32),
    "sphere48": ModelSpec("sphere", dim=2, resolution=48),
}
ENGINES = {
    "expm": apply_semigroup,
    "cn": lambda model, f, t: CrankNicolson(model, base_steps=32,
                                           richardson_tol=1e-6).evolve(f, t),
}


@functools.cache
def noise(name):
    model, _ = build_model(MODELS[name])
    return model, model.field(np.random.default_rng(0).standard_normal(model.n_nodes))


def forget_blocks(model):
    model.derived.pop("_blocks", None)
    model.derived.pop("_chebyshev", None)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name, t", [("heis", 0.02), ("heis", 0.2), ("heis", 0.25),
                                     ("heis", 1.0), ("torus1", 0.1),
                                     ("sphere32", 0.1), ("sphere48", 0.1)])
def test_evolve(benchmark, engine, name, t):
    model, f = noise(name)
    out = benchmark.pedantic(lambda: ENGINES[engine](model, f, t),
                             setup=lambda: forget_blocks(model), rounds=5)
    assert abs(model.integrate(out) - model.integrate(f)) < 1e-8
