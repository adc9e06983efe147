import collections
import dataclasses
import gc
import json
import os
import struct
import subprocess
import sys
import textwrap
import weakref
import zlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import ive

from heatlab import (
    CrankNicolson,
    EdgeForm,
    ModelSpec,
    apply_semigroup,
    build_model,
    eigenvalue_clusters,
    equilibrium_error,
    equilibrium_rate,
    heat_kernel_block,
    load_spectral,
    model_hash,
    neumann_restrict,
    node_nearest,
    save_spectral,
    spectral_decompose,
)
from heatlab import semigroup
from heatlab.checks import check_completeness
from heatlab.cli import ModelContext
from heatlab.semigroup import CACHE_MAGIC, canonical_basis
from heatlab.models import exact_heat_kernel
from heatlab.suites import sub_riemannian_suite


def test_mass_conservation(sphere, torus1, heis):
    for bundle, t in ((sphere, 1.0), (torus1, 10.0)):
        model = bundle[0]
        pt = apply_semigroup(model, model.constant(1.0), t)
        assert np.max(np.abs(pt.values - 1.0)) < 1e-10
    model, _ = heis
    pt = apply_semigroup(model, model.constant(1.0), 0.2)
    assert np.max(np.abs(pt.values - 1.0)) < 1e-10
    f = model.field(np.random.default_rng(3).standard_normal(model.n_nodes))
    mass = model.integrate(f)
    assert abs(model.integrate(apply_semigroup(model, f, 0.2)) - mass) \
        < 1e-10 * model.integrate(np.abs(f.values))


def test_eigenfunction_decay(sphere):
    model, _, spectral = sphere
    phi1 = model.field(spectral.eigenfields[:, 1])
    t = 0.7
    pt = apply_semigroup(model, phi1, t)
    expected = np.exp(-spectral.eigenvalues[1] * t) * phi1.values
    assert np.max(np.abs(pt.values - expected)) < 1e-10


def test_time_zero_identity(torus1):
    model, _, _ = torus1
    rng = np.random.default_rng(0)
    f = model.field(rng.standard_normal(model.n_nodes))
    assert np.array_equal(apply_semigroup(model, f, 0.0).values, f.values)
    with pytest.raises(ValueError):
        apply_semigroup(model, f, -0.1)


def test_cross_engine_agreement(torus1, sphere, heis):
    # the exact flow through the blocks on the torus and the sphere, through
    # the Chebyshev series on heis
    for model in (torus1[0], sphere[0], heis[0]):
        rng = np.random.default_rng(1)
        f = model.field(rng.standard_normal(model.n_nodes))
        a = apply_semigroup(model, f, 0.1)
        b = CrankNicolson(model).evolve(f, 0.1)
        assert np.max(np.abs(a.values - b.values)) < 1e-4


def test_expm_flow_matches_dense_exponential():
    model, _ = build_model(ModelSpec("heisenberg", dim=3, resolution=9, extent=1.25,
                                        options={"z_extent": 0.15625}))
    assert model.n_nodes == 389
    f = model.field(np.random.default_rng(4).standard_normal(model.n_nodes))
    L = model.L.toarray()
    for t in (0.01, 0.2, 1.0):
        exact = sla.expm(t * L) @ f.values
        got = apply_semigroup(model, f, t).values
        assert np.max(np.abs(got - exact)) < 1e-12 * np.max(np.abs(exact))
    assert np.array_equal(apply_semigroup(model, f, 0.0).values, f.values)
    with pytest.raises(ValueError):
        apply_semigroup(model, f, -0.1)


def _forbid_expm_multiply(monkeypatch):
    def generic(*args, **kwargs):
        raise AssertionError("the exact flow ran expm_multiply")
    monkeypatch.setattr(spla, "expm_multiply", generic)


@pytest.mark.parametrize("a", [0.5, 2.5, 64.0, 5000.0])
def test_bessel_weights_match_scipy(a):
    w = semigroup._bessel_weights(a)
    k = np.arange(w.size)
    ref = ive(k, a)                              # exp(-a) I_k(a)
    assert np.max(np.abs(w - ref)) <= 1e-14 * ref.max()
    assert abs(w[0] + 2 * w[1:].sum() - 1.0) <= 4 * np.finfo(float).eps
    # the true tail beyond the cut, and the cut is the first index below it
    assert 2 * ive(np.arange(w.size, w.size + 2000), a).sum() < semigroup.CHEB_TAIL
    assert 2 * ive(np.arange(w.size - 1, w.size + 2000), a).sum() >= semigroup.CHEB_TAIL


def test_bessel_recurrence_started_too_low_raises():
    with pytest.raises(semigroup.SolverError, match="leaves a tail"):
        semigroup._bessel_weights(64.0, start=20)


@pytest.mark.parametrize("t", [0.01, 0.05, 0.25, 1.0])
def test_heis_flow_matches_expm_multiply(heis, t):
    model, _ = heis
    fv = np.random.default_rng(7).standard_normal(model.n_nodes)
    A, dm = semigroup._symmetrized(model)
    ref = dm * spla.expm_multiply(-t * A, fv / dm)     # reference only
    got = apply_semigroup(model, model.field(fv), t).values
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["heis", "torus1", "sphere"])
def test_no_flow_runs_expm_multiply(name, request, monkeypatch):
    model = request.getfixturevalue(name)[0]
    _forbid_expm_multiply(monkeypatch)
    f = model.field(np.random.default_rng(8).standard_normal(model.n_nodes))
    mass = model.integrate(f)
    for t in (0.05, 0.25, 1.0):
        out = apply_semigroup(model, f, t)
        assert np.array_equal(out.values, apply_semigroup(model, f, t).values)
        assert abs(model.integrate(out) - mass) < 1e-12 * model.integrate(np.abs(f.values))
        pt = apply_semigroup(model, model.constant(1.0), t)
        assert np.max(np.abs(pt.values - 1.0)) < 1e-12


def test_torus_flow_matches_full_spectrum(torus1, monkeypatch):
    model, _, spectral = torus1
    assert spectral.count == model.n_nodes          # the whole spectrum: exact
    _forbid_expm_multiply(monkeypatch)
    f = model.field(np.random.default_rng(9).standard_normal(model.n_nodes))
    phi = spectral.eigenfields
    coef = phi.T @ (model.mu * f.values)
    for t in (0.01, 0.1, 10.0):
        ref = phi @ (np.exp(-spectral.eigenvalues * t) * coef)
        got = apply_semigroup(model, f, t).values
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(f.values))


def _assert_flow_matches_dense_exponential(model, monkeypatch):
    f = model.field(np.random.default_rng(5).standard_normal(model.n_nodes))
    L = model.L.toarray()
    _forbid_expm_multiply(monkeypatch)
    assert semigroup._blocks(model) is not None
    for t in (0.01, 0.1, 1.0):
        exact = sla.expm(t * L) @ f.values
        got = apply_semigroup(model, f, t).values
        assert np.max(np.abs(got - exact)) < 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("res", [8, 16])
def test_sphere_flow_matches_dense_exponential(res, monkeypatch):
    model, _ = build_model(ModelSpec("sphere", dim=2, resolution=res))
    _assert_flow_matches_dense_exponential(model, monkeypatch)


@pytest.mark.parametrize("kind,dim,res", [
    ("euclidean", 1, 16), ("euclidean", 2, 9), ("euclidean", 3, 8),
    ("torus", 1, 15), ("torus", 2, 8)])
def test_grid_flow_matches_dense_exponential(kind, dim, res, monkeypatch):
    model, _ = build_model(ModelSpec(kind, dim=dim, resolution=res))
    _assert_flow_matches_dense_exponential(model, monkeypatch)


def test_sphere_flow_matches_generic_route(monkeypatch):
    model, _ = build_model(ModelSpec("sphere", dim=2, resolution=32))
    plain = _unmarked(model)
    fv = np.random.default_rng(6).standard_normal(model.n_nodes)
    ref = apply_semigroup(plain, plain.field(fv), 0.1).values
    _forbid_expm_multiply(monkeypatch)
    f = model.field(fv)
    got = apply_semigroup(model, f, 0.1).values
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(apply_semigroup(model, f, 0.0).values, fv)
    with pytest.raises(ValueError):
        apply_semigroup(model, f, -0.1)
    for t in (0.1, 1.0):
        pt = apply_semigroup(model, model.constant(1.0), t)
        assert np.max(np.abs(pt.values - 1.0)) < 1e-10
        assert abs(model.integrate(apply_semigroup(model, f, t)) - model.integrate(f)) \
            < 1e-12 * model.integrate(np.abs(fv))


def _tampered(model, edge):
    # scale one conductance by 1.001; the copy assembles its own L, and the
    # marker stays
    ef = model.edge_form
    c = np.array(ef.c)
    c[edge] *= 1.001
    return dataclasses.replace(model, edge_form=EdgeForm(ef.i, ef.j, c, ef.n_nodes))


# lat8 edges: 16 longitudes of 7 longitude couplings (rows 0-6), then 6 of
# 16 latitude couplings (rows r to r + 1), then 16 north and 16 south pole edges
@pytest.mark.parametrize("edge", [2, 3 * 7 + 2, 16 * 7 + 2 * 16 + 5, -1],
                         ids=["longitude-0", "longitude-3", "latitude", "pole"])
def test_tampered_sphere_blocks_raise(edge):
    model, _ = build_model(ModelSpec("sphere", dim=2, resolution=8))
    apply_semigroup(model, model.constant(1.0), 0.1)
    tampered = _tampered(model, edge)
    with pytest.raises(semigroup.SolverError, match="miss the operator"):
        apply_semigroup(tampered, tampered.constant(1.0), 0.1)


@pytest.mark.parametrize("kind,dim,res", [
    ("euclidean", 1, 48), ("euclidean", 2, 8), ("euclidean", 3, 8),
    ("torus", 1, 48), ("torus", 2, 9), ("sphere", 2, 12)])
def test_blocks_built_once_per_model(kind, dim, res, monkeypatch):
    spec = ModelSpec(kind, dim=dim, resolution=res)
    ref_model, _ = build_model(spec)
    ref_sd = spectral_decompose(ref_model, k=40)
    built = collections.Counter()
    real = semigroup._symmetrized

    def counted(model):
        built["_symmetrized"] += 1
        return real(model)
    monkeypatch.setattr(semigroup, "_symmetrized", counted)
    model, _ = build_model(spec)
    sd = spectral_decompose(model, k=40)
    f = model.field(np.random.default_rng(3).standard_normal(model.n_nodes))
    evolved = [apply_semigroup(model, f, 0.1), apply_semigroup(model, f, 0.1)]
    spectral_decompose(model, k=20)
    assert built == {"_symmetrized": 1}
    # the model keeps L and its blocks, not the symmetrized operator
    assert set(model.derived) == {"_L", "_blocks"}
    blocks, dm = model.derived["_blocks"]
    assert isinstance(dm, np.ndarray)
    assert not any(map(sp.issparse, vars(blocks).values()))
    assert np.array_equal(sd.eigenvalues, ref_sd.eigenvalues)
    assert np.array_equal(sd.eigenfields, ref_sd.eigenfields)
    ref = apply_semigroup(ref_model, ref_model.field(f.values), 0.1).values
    for pt in evolved:
        assert np.array_equal(pt.values, ref)


def test_chebyshev_operator_built_once_per_model(monkeypatch):
    # an unmarked model keeps the flow's Chebyshev operator, however many
    # checks evolve it, and nothing that holds the model back, which would
    # outlive its last reference
    built = collections.Counter()
    real = semigroup._symmetrized

    def counted(model):
        built["_symmetrized"] += 1
        return real(model)
    monkeypatch.setattr(semigroup, "_symmetrized", counted)
    model, _ = build_model(ModelSpec("heisenberg", dim=3, resolution=9, extent=1.25,
                                     options={"z_extent": 0.15625}))
    f = model.field(np.random.default_rng(2).standard_normal(model.n_nodes))
    first = apply_semigroup(model, f, 0.1).values
    check_completeness(model, [0.1, 0.2])
    sub_riemannian_suite(model)
    equilibrium_error(model, f, 0.3)
    assert built == {"_symmetrized": 1}
    assert "_chebyshev" in model.derived and "_blocks" not in model.derived
    assert np.array_equal(apply_semigroup(model, f, 0.1).values, first)
    alive = weakref.ref(model)
    gc.disable()
    try:
        del model, f
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind,res,marker,match", [
    ("sphere", 8, ("sphere", 7), "nodes"),
    ("sphere", 8, ("sphere", 9), "nodes"),
    ("torus", 14, ("sphere", 3), "miss the operator"),  # 14 = 2 rows of 6 + 2 poles
])
def test_wrong_sphere_marker_raises_in_flow(kind, res, marker, match):
    model, _ = build_model(ModelSpec(kind, dim=1 if kind == "torus" else 2,
                                        resolution=res))
    model.meta["structure"] = marker
    with pytest.raises(semigroup.SolverError, match=match):
        apply_semigroup(model, model.constant(1.0), 0.1)


def test_semigroup_law(sphere):
    model, _, _ = sphere
    rng = np.random.default_rng(2)
    f = model.field(rng.standard_normal(model.n_nodes))
    a = apply_semigroup(model, apply_semigroup(model, f, 0.3), 0.2)
    b = apply_semigroup(model, f, 0.5)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_positivity_and_submarkov(sphere):
    model, _, _ = sphere
    rng = np.random.default_rng(3)
    f = model.field(rng.uniform(0.0, 1.0, model.n_nodes))
    pt = apply_semigroup(model, f, 0.2).values
    assert pt.min() > -1e-8
    assert pt.max() < 1 + 1e-8


def test_lp_contraction(sphere):
    model, _, _ = sphere
    rng = np.random.default_rng(4)
    f = model.field(rng.standard_normal(model.n_nodes))
    pt = apply_semigroup(model, f, 0.3)
    for p in (1, 2, np.inf):
        assert model.norm(pt, p) <= model.norm(f, p) * (1 + 1e-10)


def test_kernel_symmetry_and_chapman_kolmogorov(torus1):
    model, _, spectral = torus1
    idx = np.arange(model.n_nodes)
    K1 = heat_kernel_block(spectral, 0.4, idx)
    K2 = heat_kernel_block(spectral, 0.6, idx)
    comp = K1 @ (model.mu[:, None] * K2)
    K3 = heat_kernel_block(spectral, 1.0, idx)
    assert np.max(np.abs(K1 - K1.T)) < 1e-12
    assert np.max(np.abs(comp - K3)) < 1e-8


def test_kernel_block_equals_one_shot_product(sphere):
    # the block is formed over runs of rows; against the 64 probe columns of
    # kernel-laws, and on a 100 x 100 block, every run gives the bits of
    # the one-shot product, also the last, longer run
    model, _, spectral = sphere
    n, phi = model.n_nodes, spectral.eigenfields
    assert n % semigroup._BLOCK != 0
    rng = np.random.default_rng(5)
    cols = np.sort(rng.choice(n, 64, replace=False))
    some = [int(i) for i in rng.choice(n, 100, replace=False)]
    for t in (0.05, 0.5):
        w = np.exp(-spectral.eigenvalues * t)
        for rows in (some, np.array(some), np.arange(n), slice(None)):
            ref = (phi[rows] * w) @ phi[cols].T
            assert np.array_equal(heat_kernel_block(spectral, t, rows, cols), ref)
        # cols defaults to rows: the same array on both sides
        assert np.array_equal(heat_kernel_block(spectral, t, some),
                              heat_kernel_block(spectral, t, some, some))


def test_kernel_against_oracles(euclid1, sphere):
    model, oracle, spectral = euclid1
    i = node_nearest(model, [0.0])
    j = node_nearest(model, [0.25])
    ke = heat_kernel_block(spectral, 0.05, [i], [j])[0, 0]
    ref = exact_heat_kernel(oracle, 0.05, model.nodes[i], model.nodes[j])
    assert ke == pytest.approx(ref, rel=0.01)

    smodel, soracle, sspectral = sphere
    a = node_nearest(smodel, [0, 0, 1])
    b = node_nearest(smodel, [1, 0, 0])
    kv = heat_kernel_block(sspectral, 5.0, [a], [b])[0, 0]
    assert kv == pytest.approx(1 / (4 * np.pi), rel=0.01)


def test_reproducing_kernels(sphere):
    model, _, spectral = sphere
    clusters = eigenvalue_clusters(spectral.eigenvalues, rtol=5e-3)
    assert [len(c) for c in clusters[:3]] == [1, 3, 5]
    # projection kernel of an eigenspace: sum of phi_k(i) phi_k(j) over it
    phi = spectral.eigenfields
    pole = node_nearest(model, [0, 0, 1])
    v1 = phi[pole, clusters[1]] @ phi[pole, clusters[1]]
    assert v1 == pytest.approx(3 / (4 * np.pi), rel=0.01)
    x = node_nearest(model, [1, 0, 0])
    v0 = phi[pole, clusters[0]] @ phi[x, clusters[0]]
    assert v0 == pytest.approx(1 / model.total_measure, rel=1e-10)


def test_reproducing_kernel_basis_invariance(sphere):
    # remix the eigenspace by a random orthogonal matrix: kernel unchanged
    model, _, spectral = sphere
    clusters = eigenvalue_clusters(spectral.eigenvalues, rtol=5e-3)
    cl = clusters[1]
    phi = spectral.eigenfields[:, cl]
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((len(cl), len(cl))))
    K_orig = phi @ phi.T
    K_remix = (phi @ Q) @ (phi @ Q).T
    assert np.max(np.abs(K_orig - K_remix)) < 1e-12


def test_reproducing_kernel_reproduces_cluster_span(sphere):
    model, _, spectral = sphere
    clusters = eigenvalue_clusters(spectral.eigenvalues, rtol=5e-3)
    cl = clusters[1]
    rng = np.random.default_rng(8)
    f = spectral.eigenfields[:, cl] @ rng.standard_normal(len(cl))
    K = spectral.eigenfields[:, cl] @ spectral.eigenfields[:, cl].T
    reproduced = K @ (model.mu * f)
    assert np.max(np.abs(reproduced - f)) < 1e-10 * np.max(np.abs(f))


def test_equilibrium(sphere):
    model, _, spectral = sphere
    phi1 = model.field(spectral.eigenfields[:, 1])
    rate = equilibrium_rate(model, phi1, np.linspace(0.5, 2.0, 7))
    assert rate == pytest.approx(-2.0, rel=0.03)
    assert equilibrium_error(model, model.constant(2.0), 0.5) < 1e-10
    rng = np.random.default_rng(5)
    f = model.field(rng.standard_normal(model.n_nodes))
    assert equilibrium_error(model, f, 20.0) < 1e-8


def test_neumann_restrict_identity_and_errors(torus1):
    model, _, _ = torus1
    same = neumann_restrict(model, np.arange(model.n_nodes))
    assert same.n_nodes == model.n_nodes
    assert abs(same.L - model.L).max() < 1e-14
    with pytest.raises(ValueError):
        neumann_restrict(model, [0, 1, 2, 9, 10])   # two components


def test_neumann_half_sphere_cap(sphere):
    model, _, _ = sphere
    cap = neumann_restrict(model, model.nodes[:, 2] >= -1e-9)
    sd = spectral_decompose(cap, k=3)
    # first nonconstant Neumann mode of the hemisphere has eigenvalue 2
    assert sd.eigenvalues[1] == pytest.approx(2.0, rel=0.05)
    diam = np.pi
    assert sd.eigenvalues[1] * diam**2 > 1.0   # conservative domain constant


def test_spectral_cache_roundtrip(tmp_path, tiny_torus):
    model, _, spectral = tiny_torus
    path = os.path.join(tmp_path, "cache.spec")
    mh = model_hash(model)
    save_spectral(path, spectral, mh)
    back = load_spectral(path, mh)
    assert back is not None
    assert np.array_equal(back.eigenvalues, spectral.eigenvalues)
    assert np.array_equal(back.eigenfields, spectral.eigenfields)
    # both arrays are read-only views, end to end, of the one block read
    lam, phi = back.eigenvalues, back.eigenfields
    assert not lam.flags.writeable and not phi.flags.writeable
    assert phi.flags.c_contiguous and phi.flags.aligned
    assert (lam.__array_interface__["data"][0] + lam.nbytes
            == phi.__array_interface__["data"][0])
    # the blocks are CRC'd and written from the arrays' own buffers: the
    # file holds exactly their bytes, and the loaded views save to the
    # same file
    lam, phi = spectral.eigenvalues.tobytes(), spectral.eigenfields.tobytes()
    header = _header(path)
    assert header["checksum"] == zlib.crc32(phi, zlib.crc32(lam))
    text = json.dumps(header, sort_keys=True).encode()
    with open(path, "rb") as fh:
        data = fh.read()
    assert data == CACHE_MAGIC + struct.pack("<I", len(text)) + text + lam + phi
    save_spectral(path, back, mh)
    with open(path, "rb") as fh:
        assert fh.read() == data
    assert load_spectral(path, "0" * 64) is None          # hash mismatch
    assert load_spectral(os.path.join(tmp_path, "nope"), mh) is None


def _write_v1_cache(path, spectral, mh):
    # the version 1 layout: same magic and blocks, eigenfields in any basis
    header = json.dumps({
        "version": 1, "model_id": spectral.model_id, "model_hash": mh,
        "k": spectral.count, "n": spectral.eigenfields.shape[0],
        "residual": spectral.residual, "gram_error": spectral.gram_error,
    }, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC + struct.pack("<I", len(header)) + header)
        fh.write(spectral.eigenvalues.tobytes())
        fh.write(spectral.eigenfields.tobytes())


def _header(path):
    with open(path, "rb") as fh:
        assert fh.read(len(CACHE_MAGIC)) == CACHE_MAGIC
        (hlen,) = struct.unpack("<I", fh.read(4))
        return json.loads(fh.read(hlen))


def test_version1_cache_is_recomputed(tmp_path):
    spec = ModelSpec("torus", dim=1, resolution=16)
    ctx = ModelContext("t", spec, str(tmp_path), seed=0, k=16)
    model = ctx.model
    mh = model_hash(model)
    fresh = spectral_decompose(model, k=16)
    path = os.path.join(tmp_path, "t-k16.spec")
    # a valid decomposition in another basis, as a version 1 file may hold
    flipped = semigroup.SpectralData(fresh.model_id, fresh.eigenvalues,
                                     -fresh.eigenfields, fresh.residual,
                                     fresh.gram_error)
    _write_v1_cache(path, flipped, mh)
    assert load_spectral(path, mh) is None

    got = ctx.spectral()
    assert np.array_equal(got.eigenfields, fresh.eigenfields)
    assert _header(path)["version"] == semigroup.CACHE_VERSION
    back = load_spectral(path, mh)
    assert back is not None
    assert np.array_equal(back.eigenfields, fresh.eigenfields)


def test_version4_cache_is_recomputed(tmp_path, monkeypatch):
    # a version 4 file of an unmarked model may hold an eigsh solve started
    # from a vector drawn from the run's seed: it is a miss, so a warm run
    # reads only the solve that a cold run makes
    model, _ = build_model(ModelSpec("torus", dim=1, resolution=64))
    sub = neumann_restrict(model, np.arange(40))
    mh = model_hash(sub)
    path = str(tmp_path / "s-k3.spec")
    fresh = spectral_decompose(sub, k=3)
    with monkeypatch.context() as m:
        m.setattr(semigroup, "CACHE_VERSION", 4)
        save_spectral(path, fresh, mh)
    assert _header(path)["version"] == 4
    assert load_spectral(path, mh) is None
    semigroup.cached_decompose(sub, 3, path)
    assert _header(path)["version"] == semigroup.CACHE_VERSION


def test_damaged_cache_is_recomputed(tmp_path, monkeypatch):
    # a cut-short or garbled cache file is a miss: the decomposition is
    # computed afresh and the file rewritten
    model, _ = build_model(ModelSpec("torus", dim=1, resolution=16))
    mh = model_hash(model)
    path = str(tmp_path / "t-k6.spec")
    good = semigroup.cached_decompose(model, 6, path)
    with open(path, "rb") as fh:
        data = fh.read()
    head = len(CACHE_MAGIC) + 4
    hlen = struct.unpack("<I", data[len(CACHE_MAGIC):head])[0]
    blocks = head + hlen
    lam0 = data[:blocks] + struct.pack("<d", 5.0) + data[blocks + 8:]
    # a flipped eigenfield entry leaves sizes and header intact; only the
    # checksum tells
    flipped = data[:-8] + struct.pack("<d", 1e3)
    damaged = [data[:n] for n in (0, 5, head - 2, blocks - 3, blocks + 20,
                                  blocks + 48, len(data) - 8)]
    damaged += [data[:head] + b"[" + b" " * (hlen - 2) + b"]" + data[blocks:],
                data[:head] + b"\xff" * hlen + data[blocks:],
                data[:len(CACHE_MAGIC)] + struct.pack("<I", 2**31) + data[head:],
                lam0, flipped, data + b"\0" * 8]
    solves = []
    real = semigroup.spectral_decompose

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(semigroup, "spectral_decompose", counted)
    for n, bad in enumerate(damaged):
        with open(path, "wb") as fh:
            fh.write(bad)
        assert load_spectral(path, mh) is None, n
        got = semigroup.cached_decompose(model, 6, path)
        assert len(solves) == n + 1
        assert np.array_equal(got.eigenfields, good.eigenfields)
        with open(path, "rb") as fh:
            assert fh.read() == data, n


def _unmarked(model):
    # the same operator without the structure marker: the generic solvers run
    return neumann_restrict(model, np.arange(model.n_nodes))


def test_eigsh_without_convergence_raises_solver_error(monkeypatch):
    model = _unmarked(build_model(ModelSpec("torus", dim=1, resolution=64))[0])

    def stalled(*args, **kwargs):
        raise semigroup.spla.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((64, 0)))
    monkeypatch.setattr(semigroup.spla, "eigsh", stalled)
    with pytest.raises(semigroup.SolverError, match="did not converge"):
        spectral_decompose(model, k=4)          # N = 64 > 10 k: the eigsh path


def test_canonical_basis_ignores_rotations_within_clusters(sphere):
    model, _, spectral = sphere
    clusters = eigenvalue_clusters(spectral.eigenvalues)
    assert max(len(c) for c in clusters) > 1
    rng = np.random.default_rng(12)
    rotated = spectral.eigenfields.copy()
    for cl in clusters:
        O, _ = np.linalg.qr(rng.standard_normal((len(cl), len(cl))))
        rotated[:, cl] = rotated[:, cl] @ O
    assert np.max(np.abs(rotated - spectral.eigenfields)) > 0.1
    back = canonical_basis(spectral.eigenvalues, rotated, model.mu)
    assert np.max(np.abs(back - spectral.eigenfields)) < 1e-10


@pytest.fixture(scope="module")
def sphere16():
    model, _ = build_model(ModelSpec("sphere", dim=2, resolution=16))
    return _unmarked(model)


def _full_clusters(spectral):
    # the last cluster may be cut by k, and its retained vectors are arbitrary
    return np.concatenate(eigenvalue_clusters(spectral.eigenvalues)[:-1])


def test_dense_and_eigsh_paths_agree(sphere16, monkeypatch):
    model = sphere16
    n = model.n_nodes
    k_eigsh, k_dense = n // 10 - 3, n // 10 + 3
    ran = []
    eigsh, eigh = semigroup.spla.eigsh, semigroup.sla.eigh
    monkeypatch.setattr(semigroup.spla, "eigsh",
                        lambda *a, **kw: ran.append("eigsh") or eigsh(*a, **kw))
    monkeypatch.setattr(semigroup.sla, "eigh",
                        lambda *a, **kw: ran.append("dense") or eigh(*a, **kw))
    a = spectral_decompose(model, k=k_eigsh)
    b = spectral_decompose(model, k=k_dense)
    assert ran == ["eigsh", "dense"]
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues[:k_eigsh])) < 1e-10
    full = _full_clusters(a)
    assert np.max(np.abs(a.eigenfields[:, full] - b.eigenfields[:, full])) < 1e-8


_CD_MARGIN = textwrap.dedent("""
    import numpy as np
    from heatlab import ModelSpec, build_model, neumann_restrict, spectral_decompose
    from heatlab.checks import check_cd
    from heatlab.suites import eigen_fields
    model, oracle = build_model(ModelSpec("sphere", dim=2, resolution=16))
    for m in (model, neumann_restrict(model, np.arange(model.n_nodes))):
        spectral = spectral_decompose(m, k=60)
        rep = check_cd(m, oracle, eigen_fields(m, spectral), mode="riemannian")
        print(repr(rep.min_margin))
""")


def test_cd_margin_does_not_follow_blas_threads():
    # single eigenfields and their combinations come from degenerate
    # eigenspaces of the latitude grid; at N = 482, k = 60 the structured
    # route runs on the model and the dense solver on its unmarked copy
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    margins = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _CD_MARGIN], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        margins.append([float(v) for v in out.stdout.strip().splitlines()[-2:]])
    for a, b in zip(*margins):
        assert abs(a - b) <= 1e-9 * abs(a)


STRUCTURED = [("euclidean", 1, 16), ("euclidean", 2, 12), ("euclidean", 3, 8),
              ("torus", 1, 16), ("torus", 1, 15), ("torus", 2, 10), ("torus", 2, 9),
              ("sphere", 2, 12)]


@pytest.mark.parametrize("kind,dim,res", STRUCTURED)
def test_structured_route_matches_generic_solver(kind, dim, res, monkeypatch):
    model, _ = build_model(ModelSpec(kind, dim=dim, resolution=res))
    assert "structure" in model.meta
    ref = spectral_decompose(_unmarked(model), k=model.n_nodes)   # dense, every cluster whole
    # cut the widest cluster in the low third of the spectrum in half (the
    # 1-D box has simple eigenvalues only: then cut nothing)
    low = [c for c in eigenvalue_clusters(ref.eigenvalues) if c[-1] < model.n_nodes // 3]
    cut = max(low, key=len)
    assert len(cut) > 1 or (kind, dim) == ("euclidean", 1)
    k = int(cut[0]) + len(cut) // 2 if len(cut) > 1 else model.n_nodes // 3

    def generic(*args, **kwargs):
        raise AssertionError("a structured model ran a generic solver")
    monkeypatch.setattr(semigroup.spla, "eigsh", generic)
    monkeypatch.setattr(semigroup.sla, "eigh", generic)
    a = spectral_decompose(model, k=k)
    b = spectral_decompose(model, k=k)

    lam = ref.eigenvalues[:k]
    assert np.all(np.abs(a.eigenvalues - lam) <= 1e-10 * np.maximum(1.0, lam))
    whole = np.arange(k if len(cut) == 1 else int(cut[0]))
    assert np.max(np.abs(a.eigenfields[:, whole] - ref.eigenfields[:, whole])) < 1e-8
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenfields, b.eigenfields)     # the cut cluster too


@pytest.mark.parametrize("kind,dim,res,marker,match", [
    ("euclidean", 2, 12, ("torus", 12, 2), "miss the operator"),
    ("torus", 1, 16, ("box", 16, 1), "miss the operator"),
    ("torus", 2, 10, ("torus", 10, 1), "nodes"),
    ("sphere", 2, 16, ("sphere", 12), "nodes"),
    ("sphere", 2, 12, ("disk", 12), "unknown"),
])
def test_tampered_structure_marker_raises(kind, dim, res, marker, match):
    model, _ = build_model(ModelSpec(kind, dim=dim, resolution=res))
    model.meta["structure"] = marker
    with pytest.raises(semigroup.SolverError, match=match):
        spectral_decompose(model, k=8)
    with pytest.raises(semigroup.SolverError, match=match):
        apply_semigroup(model, model.constant(1.0), 0.1)
    assert "_blocks" not in model.derived


def _former_pairs(blocks, k):
    # the one-shot products that the structured pairs were formed by
    if isinstance(blocks, semigroup._GridBlocks):
        shape, n = blocks.total.shape, blocks.total.size
        order = np.argsort(blocks.total.ravel(), kind="stable")[:k]
        modes = np.unravel_index(order, shape)
        coords = np.unravel_index(np.arange(n), shape)
        U = np.ones((n, k))
        for ax in range(len(shape)):
            U *= blocks.V[np.ix_(coords[ax], modes[ax])]
        return blocks.total.ravel()[order], U
    zero = np.zeros(blocks.nrows)
    lam = np.concatenate([blocks.blocks[m][0] for m in blocks.freq])
    vecs = np.hstack([blocks.blocks[m][1] if m == 0
                      else np.vstack([zero, blocks.blocks[m][1], zero])
                      for m in blocks.freq])
    col = np.repeat(np.arange(blocks.mp), [blocks.blocks[m][0].size for m in blocks.freq])
    order = np.argsort(lam, kind="stable")[:k]
    amp, waves = vecs[:, order], blocks.waves[:, col[order]]
    U = np.empty((blocks.nrows * blocks.mp + 2, k))
    U[:-2] = (amp[1:-1, None, :] * waves[None, :, :]).reshape(-1, k)
    U[-2], U[-1] = amp[0], amp[-1]
    return lam[order], U


@pytest.mark.parametrize("kind,dim,res,k", [
    ("euclidean", 2, 48, 500), ("euclidean", 3, 11, 120), ("torus", 2, 30, 200),
    ("torus", 1, 70, 70), ("sphere", 2, 24, 300)])
def test_structured_pairs_equal_one_shot_products(kind, dim, res, k):
    # the pairs are written into the returned array, the grid's run by run
    model, _ = build_model(ModelSpec(kind, dim=dim, resolution=res))
    blocks, _ = semigroup._blocks(model)
    lam, U = blocks.pairs(k)
    ref_lam, ref_U = _former_pairs(blocks, k)
    assert np.array_equal(lam, ref_lam) and np.array_equal(U, ref_U)


def test_decompose_determinism_and_errors(tiny_torus):
    model, _, _ = tiny_torus
    a = spectral_decompose(model, k=6)
    b = spectral_decompose(model, k=6)
    assert np.array_equal(a.eigenfields, b.eigenfields)
    with pytest.raises(ValueError):
        spectral_decompose(model, k=model.n_nodes + 1)


def test_richardson_stepper_refines(torus1):
    model, _, _ = torus1
    rng = np.random.default_rng(11)
    f = model.field(rng.standard_normal(model.n_nodes))
    coarse = CrankNicolson(model, base_steps=4, max_doublings=0).evolve(f, 0.5)
    # 6 doublings end at 256 steps, whose last doubling changes the result
    # by 6.9e-7: within 1e-6, but 700 times 1e-9
    fine = CrankNicolson(model, base_steps=4, max_doublings=6,
                         richardson_tol=1e-6).evolve(f, 0.5)
    exact = apply_semigroup(model, f, 0.5)
    err_c = np.max(np.abs(coarse.values - exact.values))
    err_f = np.max(np.abs(fine.values - exact.values))
    assert err_f < err_c / 10
    with pytest.raises(semigroup.SolverError, match="did not converge"):
        CrankNicolson(model, base_steps=4, max_doublings=6,
                      richardson_tol=1e-9).evolve(f, 0.5)
