import pytest

from heatlab import ExpmFlow, ModelSpec, build_model, spectral_decompose


@pytest.fixture(scope="session")
def torus1():
    model, oracle = build_model(ModelSpec("torus", dim=1, resolution=64))
    spectral = spectral_decompose(model, k=64)
    return model, oracle, spectral


@pytest.fixture(scope="session")
def euclid1():
    model, oracle = build_model(
        ModelSpec("euclidean", dim=1, resolution=96, extent=1.5))
    spectral = spectral_decompose(model, k=96)
    return model, oracle, spectral


@pytest.fixture(scope="session")
def euclid2():
    model, oracle = build_model(
        ModelSpec("euclidean", dim=2, resolution=48, extent=1.5))
    spectral = spectral_decompose(model, k=500)
    return model, oracle, spectral


@pytest.fixture(scope="session")
def euclid3():
    model, oracle = build_model(
        ModelSpec("euclidean", dim=3, resolution=20, extent=1.0))
    return model, oracle


@pytest.fixture(scope="session")
def sphere():
    model, oracle = build_model(ModelSpec("sphere", dim=2, resolution=32))
    spectral = spectral_decompose(model, k=300)
    return model, oracle, spectral


@pytest.fixture(scope="session")
def heis():
    model, oracle = build_model(
        ModelSpec("heisenberg", dim=3, resolution=21, extent=1.25,
                  options={"z_extent": 0.15625}))
    return model, oracle, ExpmFlow(model)


@pytest.fixture(scope="session")
def tiny_torus():
    model, oracle = build_model(ModelSpec("torus", dim=1, resolution=16))
    spectral = spectral_decompose(model, k=16)
    return model, oracle, spectral
