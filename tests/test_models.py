import tracemalloc

import numpy as np
import pytest

from heatlab import (ModelSpec, build_model, exact_heat_kernel, heat_kernel_block,
                     spectral_decompose)
from heatlab import semigroup
from heatlab.models import (
    UnsupportedModelError,
    _sublattice_ids,
    latitude_sphere,
    model_hash,
    node_nearest,
    sphere_zonal_kernel,
)


def test_spec_validation():
    with pytest.raises(UnsupportedModelError):
        ModelSpec("klein-bottle")
    with pytest.raises(ValueError):
        ModelSpec("torus", resolution=4)
    with pytest.raises(ValueError):
        ModelSpec("euclidean", extent=-1.0)
    with pytest.raises(UnsupportedModelError):
        build_model(ModelSpec("hyperbolic", dim=2, resolution=16))
    with pytest.raises(UnsupportedModelError):
        build_model(ModelSpec("euclidean", dim=4, resolution=16))
    with pytest.raises(ValueError, match="options.mesh: a sphere model reads no such"):
        ModelSpec("sphere", dim=2, resolution=8, options={"mesh": "icosahedral"})


def test_torus_spectrum(torus1):
    _, _, spectral = torus1
    lam = spectral.eigenvalues[:5]
    assert np.allclose(lam, [0, 1, 1, 4, 4], rtol=0.01, atol=1e-9)


def test_sphere_gap_and_multiplicity(sphere):
    _, _, spectral = sphere
    lam = spectral.eigenvalues
    assert np.all(np.abs(lam[1:4] - 2.0) < 0.04)      # lambda_1 = 2, triple
    assert np.all(np.abs(lam[4:9] - 6.0) < 0.12)      # lambda_2 = 6, quintuple
    assert lam[0] < 1e-10


def test_interval_neumann_gap(euclid1):
    from heatlab import neumann_restrict

    model, _, _ = euclid1
    sub = neumann_restrict(model, np.abs(model.nodes[:, 0]) <= 0.5)
    sd = spectral_decompose(sub, k=3)
    length = sub.n_nodes * model.meta["h"]
    assert abs(sd.eigenvalues[1] * length**2 / np.pi**2 - 1) < 0.01


def test_euclidean_kernel_closed_forms():
    _, oracle = build_model(ModelSpec("euclidean", dim=1, resolution=16))
    x = np.array([0.0])
    assert exact_heat_kernel(oracle, 1.0, x, x) == pytest.approx((4 * np.pi) ** -0.5)
    y = np.array([2.0])
    assert exact_heat_kernel(oracle, 1.0, x, y) == pytest.approx(
        (4 * np.pi) ** -0.5 * np.exp(-1.0))
    _, oracle2 = build_model(ModelSpec("euclidean", dim=2, resolution=16))
    z = np.zeros(2)
    assert exact_heat_kernel(oracle2, 1 / (4 * np.pi), z, z) == pytest.approx(1.0)


def test_kernel_oracle_errors(heis):
    oracle = heis[1]
    with pytest.raises(UnsupportedModelError):
        exact_heat_kernel(oracle, 1.0, np.zeros(3), np.zeros(3))
    _, oracle_e = build_model(ModelSpec("euclidean", dim=1, resolution=16))
    with pytest.raises(ValueError):
        exact_heat_kernel(oracle_e, 0.0, np.zeros(1), np.zeros(1))


def test_zonal_kernel_equilibrium_and_symmetry(sphere):
    _, oracle, _ = sphere
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 0.0, 0.0])
    v = exact_heat_kernel(oracle, 5.0, x, y)
    assert v == pytest.approx(1 / (4 * np.pi), rel=1e-10)
    assert exact_heat_kernel(oracle, 0.3, x, y) == pytest.approx(
        exact_heat_kernel(oracle, 0.3, y, x))
    assert exact_heat_kernel(oracle, 0.3, x, x) > 0


def test_zonal_truncation_rule():
    # direct series comparison against a much deeper truncation
    a = sphere_zonal_kernel(0.05, 0.3, tail=1e-12)
    b = sphere_zonal_kernel(0.05, 0.3, tail=1e-15)
    assert a == pytest.approx(b, abs=1e-10)
    with pytest.raises(ValueError):
        sphere_zonal_kernel(1e-9, 0.0, lmax_cap=100)


def test_ball_volume_oracles(sphere):
    _, oracle, _ = sphere
    x = np.array([0, 0, 1.0])
    r = np.linspace(0.1, 3.0, 12)
    vols = np.array([oracle.exact_ball_volume(x, ri) for ri in r])
    assert np.all(np.diff(vols) >= 0)
    assert vols[-1] <= oracle.total_measure + 1e-12
    assert oracle.exact_ball_volume(x, 1.0) == pytest.approx(
        2 * np.pi * (1 - np.cos(1.0)))


def test_torus_oracle_eigenvalues(torus1):
    _, oracle, spectral = torus1
    ref = oracle.exact_eigenvalues(5)
    assert np.allclose(ref, [0, 1, 1, 4, 4])


def test_spectral_convergence_under_refinement():
    errs = []
    for m in (32, 64):
        model, oracle = build_model(ModelSpec("torus", dim=1, resolution=m))
        sd = spectral_decompose(model, k=5)
        ref = oracle.exact_eigenvalues(5)
        errs.append(np.max(np.abs(sd.eigenvalues[1:5] - ref[1:5]) / ref[1:5]))
    assert errs[1] < errs[0]

    serrs = []
    for mt in (16, 32):
        model, oracle = build_model(ModelSpec("sphere", dim=2, resolution=mt))
        sd = spectral_decompose(model, k=9)
        ref = oracle.exact_eigenvalues(9)
        serrs.append(np.max(np.abs(sd.eigenvalues[1:9] - ref[1:9]) / ref[1:9]))
    assert serrs[1] < serrs[0]


def test_latitude_sphere_total_measure():
    i, j, c, mu, nodes, lengths, trusted, dth = latitude_sphere(24)
    assert mu.sum() == pytest.approx(4 * np.pi, rel=1e-3)
    assert np.all(np.abs(np.linalg.norm(nodes, axis=1) - 1) < 1e-12)


def test_heisenberg_lattice_structure(heis):
    model, oracle = heis
    # horizontal moves preserve the sublattice parity and stay in the box
    assert model.edge_form.n_edges > 0
    assert model.vertical_form.n_edges > 0
    assert oracle.cd_params is not None and oracle.cd_params.rho1 == 0.0
    i0 = node_nearest(model, [0, 0, 0])
    assert np.allclose(model.nodes[i0], 0.0)


def _full_grid_sublattice(m_half, mz_half):
    # reference enumeration: mask the full (i, j, k) grid to k + i j even and
    # look neighbours up through a grid-sized id map (-1 off the sublattice)
    xs, ks = np.arange(-m_half, m_half + 1), np.arange(-mz_half, mz_half + 1)
    I, J, K = (a.ravel() for a in np.meshgrid(xs, xs, ks, indexing="ij"))
    keep = (K + I * J) % 2 == 0
    idmap = np.full(I.size, -1)
    idmap[keep] = np.arange(keep.sum())

    def node(i, j, k):
        return idmap[((i + m_half) * xs.size + j + m_half) * ks.size + k + mz_half]

    ib, jb, kb = I[keep], J[keep], K[keep]
    okx = (ib < m_half) & (np.abs(kb - jb) <= mz_half)
    oky = (jb < m_half) & (np.abs(kb + ib) <= mz_half)
    okz = kb + 2 <= mz_half
    i = np.concatenate([node(ib[okx], jb[okx], kb[okx]), node(ib[oky], jb[oky], kb[oky])])
    j = np.concatenate([node(ib[okx] + 1, jb[okx], kb[okx] - jb[okx]),
                        node(ib[oky], jb[oky] + 1, kb[oky] + ib[oky])])
    zi, zj = node(ib[okz], jb[okz], kb[okz]), node(ib[okz], jb[okz], kb[okz] + 2)
    assert min(i.min(), j.min(), zi.min(), zj.min()) >= 0
    deg, degz = np.zeros(ib.size), np.zeros(ib.size)
    for d, e in ((deg, i), (deg, j), (degz, zi), (degz, zj)):
        np.add.at(d, e, 1.0)
    return np.stack([ib, jb, kb], axis=1), i, j, zi, zj, (deg < 4) | (degz < 2)


@pytest.mark.parametrize("resolution,options,mz_half", [
    (9, {}, 4), (12, {"z_extent": 0.1}, 5)])
def test_heisenberg_sublattice_matches_full_grid(resolution, options, mz_half):
    model, _ = build_model(ModelSpec("heisenberg", dim=3, resolution=resolution,
                                     options=options))
    m_half = (resolution - 1) // 2
    h, hz = model.meta["h"], model.meta["z_step"] / 2
    lattice, i, j, zi, zj, boundary = _full_grid_sublattice(m_half, mz_half)
    assert np.array_equal(model.nodes, lattice * np.array([h, h, hz]))
    assert np.array_equal(model.edge_form.i, i) and np.array_equal(model.edge_form.j, j)
    vf = model.vertical_form
    assert np.array_equal(vf.i, zi) and np.array_equal(vf.j, zj)
    assert np.array_equal(model.boundary_mask, boundary)
    ids = _sublattice_ids(*lattice.T, m_half, mz_half)
    assert np.array_equal(ids, np.arange(model.n_nodes))


@pytest.mark.parametrize("point", [(0, 1, 1), (1, 3, 2), (5, 0, 0), (0, -5, 1), (0, 0, 6)],
                         ids=["odd-k", "odd-k-ij", "i-out", "j-out", "k-out"])
def test_sublattice_ids_reject_points_off_the_sublattice(point):
    # m_half = 4, mz_half = 5: every point here is off the sublattice or the box
    with pytest.raises(ValueError, match="off the even sublattice"):
        _sublattice_ids(*(np.array([0, v]) for v in point), 4, 5)


def _traced(fn):
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained, peak


def test_heisenberg_build_peak_memory():
    # each whole-lattice array is written once, into the array the model
    # keeps, and the adjacency is assembled over integer edge ids: the
    # build peaks at 1.16 times what the model keeps (1.41 when the
    # constructors copied, the nodes were stacked and the adjacency was a
    # float COO); the bound allows 0.14 over the measured ratio
    spec = ModelSpec("heisenberg", dim=3, resolution=31, extent=1.0)
    build_model(ModelSpec("heisenberg", dim=3, resolution=9))
    (model, _), retained, peak = _traced(lambda: build_model(spec))
    assert model.n_nodes == 54521
    assert peak <= 1.3 * retained, (peak, retained)


def test_volume_check_peak_memory():
    # the doubling check on the same lattice holds one distance field, the
    # ball volumes' sort order and cumulative measure, and the chart
    # envelope of the near-axis nodes only: its traced peak is 0.17 times
    # the model (0.52 when the envelope and node_nearest made (N, 3)
    # temporaries); the bound allows 0.08 over the measured ratio
    from heatlab.checks import check_volume_regularity

    spec = ModelSpec("heisenberg", dim=3, resolution=31, extent=1.0)
    build_model(ModelSpec("heisenberg", dim=3, resolution=9))
    (model, oracle), model_bytes, _ = _traced(lambda: build_model(spec))
    radii = (np.array([2, 3, 4]) + 0.49) * model.meta["h"]
    rep, _, peak = _traced(lambda: check_volume_regularity(
        model, oracle, [node_nearest(model, [0, 0, 0])], radii))
    assert "chart_ball_envelope_C" in rep.metadata
    assert peak <= 0.25 * model_bytes, (peak, model_bytes)


@pytest.fixture(scope="module")
def sphere48():
    # L and the blocks are built here, before any trace starts
    model, _ = build_model(ModelSpec("sphere", dim=2, resolution=48))
    model.L
    semigroup._blocks(model)
    return model


def test_decompose_peak_memory(sphere48, euclid2):
    # every step writes into the (N, k) array kept, or works over runs of
    # columns: the solve peaks at 1.57 (sphere lat48, k = 300) and 1.38
    # (euclid2, k = 500) times what it keeps, against 3.07 and 3.22 when the
    # products, the Gram matrix and the residual were formed whole; each
    # bound allows 0.12 to 0.13 over the measured ratio.  The euclid2
    # fixture's own solve built its L and blocks.
    for model, k, bound in ((sphere48, 300, 1.7), (euclid2[0], 500, 1.5)):
        sd, kept, peak = _traced(lambda: spectral_decompose(model, k))
        assert sd.eigenfields.shape == (model.n_nodes, k)
        assert peak <= bound * kept, (model.model_id, peak, kept)


def test_kernel_block_peak_memory(sphere48):
    # all rows against the 64 probe columns of kernel-laws: phi is read
    # through a slice and weighted one run of rows at a time, so the block
    # peaks at 1.15 times what it returns (9.4 when phi[np.arange(N)] * w
    # was formed whole); the bound allows 0.1 over the measured ratio
    spectral = spectral_decompose(sphere48, 300)
    cols = np.sort(np.random.default_rng(5).choice(sphere48.n_nodes, 64, replace=False))
    block, kept, peak = _traced(lambda: heat_kernel_block(spectral, 0.5, slice(None), cols))
    assert block.shape == (sphere48.n_nodes, 64)
    assert peak <= 1.25 * kept, (peak, kept)


def test_model_hash_stable(tiny_torus):
    model = tiny_torus[0]
    model2, _ = build_model(ModelSpec("torus", dim=1, resolution=16))
    assert model_hash(model) == model_hash(model2)
    model3, _ = build_model(ModelSpec("torus", dim=1, resolution=32))
    assert model_hash(model) != model_hash(model3)
