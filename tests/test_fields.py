import collections
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra, shortest_path

from heatlab import (
    MismatchError,
    ScalarField,
    carre_du_champ,
    check_operator_axioms,
    deep_interior,
    gamma2,
    gamma_z,
)
from heatlab import fields
from heatlab.cli import _bind_neumann, default_config
from heatlab.fields import EdgeForm, graph_laplacian, self_test_gamma
from heatlab.metric import ball_volumes, graph_distance
from heatlab.models import MODEL_DIMS, ModelSpec, build_model, node_nearest
from heatlab.semigroup import SpectralData, neumann_restrict, spectral_decompose


def test_field_validation(euclid2):
    model = euclid2[0]
    with pytest.raises(MismatchError):
        model.field(np.zeros(3))
    with pytest.raises(MismatchError):
        ScalarField("m", np.array([1.0, np.nan]))
    other = ScalarField("other-model", np.zeros(model.n_nodes))
    with pytest.raises(MismatchError):
        carre_du_champ(model, other)


def test_gamma_linear_field_is_unit(euclid2):
    model = euclid2[0]
    f = model.field(model.nodes[:, 0])
    g = carre_du_champ(model, f).values
    interior = deep_interior(model, hops=1)
    assert np.allclose(g[interior], 1.0, atol=1e-12)


def test_gamma_constant_is_zero(sphere):
    model = sphere[0]
    g = carre_du_champ(model, model.constant(3.7)).values
    assert np.max(np.abs(g)) < 1e-12


def test_gamma_two_evaluation_paths_agree(sphere, heis):
    for model in (sphere[0], heis[0]):
        resid, slack = self_test_gamma(model)
        assert resid <= slack


def test_gamma_heisenberg_vertical_coordinate(heis):
    # the lattice moves are exact flows, so Gamma(z) = (x^2 + y^2)/4 exactly
    model = heis[0]
    f = model.field(model.nodes[:, 2])
    g = carre_du_champ(model, f).values
    target = (model.nodes[:, 0] ** 2 + model.nodes[:, 1] ** 2) / 4
    interior = deep_interior(model, hops=1)
    assert np.max(np.abs(g[interior] - target[interior])) < 1e-12


def test_gamma2_quadratic_equals_dimension(euclid2):
    model = euclid2[0]
    f = model.field(0.5 * np.sum(model.nodes**2, axis=1))
    g2 = gamma2(model, f).values
    interior = deep_interior(model, hops=2)
    assert np.max(np.abs(g2[interior] - 2.0)) < 1e-10


def test_gamma2_constant_is_zero(euclid2):
    model = euclid2[0]
    g2 = gamma2(model, model.constant(1.0)).values
    assert np.max(np.abs(g2)) < 1e-12


def test_sphere_eigenfunction_cd_margin(sphere):
    model, oracle, spectral = sphere
    f = model.field(spectral.eigenfields[:, 1])
    marg = (gamma2(model, f).values
            - 0.5 * (model.L @ f.values) ** 2
            - carre_du_champ(model, f).values)
    interior = deep_interior(model, hops=2)
    scale = np.max(np.abs(gamma2(model, f).values))
    assert marg[interior].min() > -0.02 * scale


def test_vertical_form_coordinate(heis):
    model, _ = heis
    f = model.field(model.nodes[:, 2])
    gz = gamma_z(model, f).values
    interior = deep_interior(model, hops=1)
    assert np.max(np.abs(gz[interior] - 1.0)) < 1e-12


def test_operator_axioms_pass_on_catalog(torus1, sphere, heis):
    for model in (torus1[0], sphere[0], heis[0]):
        rep = check_operator_axioms(model)
        assert rep.passed, rep.worst_sample()


@pytest.mark.parametrize("probe_seed", [0, 1, 2])
def test_operator_axioms_pass_on_fine_sphere(probe_seed, monkeypatch):
    # gamma-two-paths' roundoff grows with the operator scale (about 1.1e5
    # on lat48), which the derived slack follows; the verdict must not hang
    # on one draw of the probe fields, so three draws are tried
    from heatlab import checks
    monkeypatch.setattr(checks, "PROBE_SEED", probe_seed)
    monkeypatch.setattr(fields, "PROBE_SEED", probe_seed)
    model, _ = build_model(ModelSpec("sphere", dim=2, resolution=48))
    rep = check_operator_axioms(model)
    assert rep.passed, rep.worst_sample()


def test_operator_axioms_negative_control(tiny_torus):
    # one asymmetric entry, put where the L property reads it, must flip
    # the verdict
    model = tiny_torus[0]
    L = model.L.tolil()
    L[0, 1] += 0.37
    bad = dataclasses.replace(model, model_id="corrupted")
    bad.derived["_L"] = L.tocsr()
    rep = check_operator_axioms(bad)
    assert not rep.passed


def test_gradient_of_gamma_bound_on_sphere(sphere):
    # on positive curvature: Gamma(Gamma f) <= 4 Gamma(f)(Gamma2(f) - Gamma(f))
    model, oracle, spectral = sphere
    interior = deep_interior(model, hops=2)
    rng = np.random.default_rng(0)
    for _ in range(4):
        f = model.field(spectral.eigenfields[:, 1:9] @ rng.standard_normal(8))
        g = carre_du_champ(model, f).values
        g2 = gamma2(model, f).values
        gg = carre_du_champ(model, model.field(g)).values
        lhs = gg[interior]
        rhs = (4 * g * (g2 - oracle.ricci_lower * g))[interior]
        scale = np.max(np.abs(4 * g * g2))
        assert (rhs - lhs).min() > -0.01 * scale


def test_chain_rule_consistency_rate():
    # Gamma(phi(f)) -> phi'(f)^2 Gamma(f) at a rate of at least one in h
    errs, hs = [], []
    for m in (32, 64):
        model, _ = build_model(ModelSpec("euclidean", dim=1, resolution=m,
                                            extent=1.0))
        x = model.nodes[:, 0]
        f = model.field(x)
        phi_f = model.field(np.sin(2 * x))
        lhs = carre_du_champ(model, phi_f).values
        rhs = (2 * np.cos(2 * x)) ** 2 * carre_du_champ(model, f).values
        interior = deep_interior(model, hops=1)
        errs.append(np.max(np.abs((lhs - rhs)[interior])))
        hs.append(model.meta["h"])
    rate = np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1])
    assert rate >= 1.0


def test_interior_masks(euclid2, sphere):
    model = euclid2[0]
    assert deep_interior(model, hops=1).sum() > deep_interior(model, hops=3).sum()
    # compact model: everything interior except the untrusted polar caps
    smodel = sphere[0]
    mask = deep_interior(smodel, hops=2)
    assert mask.sum() == smodel.meta["trusted_mask"].sum()


def _hops_from_boundary(model):
    # breadth-first hop counts from a super-source joined to every boundary
    # node, one hop more than the counts from the boundary set itself
    n, ef = model.n_nodes, model.edge_form
    b = np.flatnonzero(model.boundary_mask)
    i = np.concatenate([ef.i, np.full(b.size, n)])
    j = np.concatenate([ef.j, b])
    adj = sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n + 1, n + 1))
    return shortest_path(adj, directed=False, unweighted=True, indices=n)[:n] - 1


def test_hop_distance_to_boundary(euclid1, euclid2, euclid3, heis, torus1, sphere):
    for model in (euclid1[0], euclid2[0], euclid3[0], heis[0]):
        hops = model.hop_distance_to_boundary()
        assert hops.max() >= 3
        np.testing.assert_array_equal(hops, _hops_from_boundary(model))
        # and Dijkstra over a unit-weight adjacency built here
        unit = dijkstra(_adjacency_from_coo(model, "unit"), directed=True,
                        indices=np.flatnonzero(model.boundary_mask), min_only=True)
        assert np.array_equal(hops, unit)
    for model in (torus1[0], sphere[0]):
        assert np.all(np.isinf(model.hop_distance_to_boundary()))


def test_graph_laplacian_row_sums(tiny_torus):
    model = tiny_torus[0]
    ones = np.ones(model.n_nodes)
    assert np.max(np.abs(model.L @ ones)) < 1e-12
    D = sp.diags(model.mu)
    M = D @ model.L
    assert abs(M - M.T).max() < 1e-14


def _laplacian_from_full_coo(ef, mu):
    # reference assembly: a COO of 4E entries, each node's diagonal held as
    # one -c duplicate per edge end, summed by the CSR conversion
    i, j, c = ef.i, ef.j, ef.c
    L = sp.coo_matrix((np.concatenate([c, c, -c, -c]),
                       (np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j]))),
                      shape=(ef.n_nodes,) * 2).tocsr()
    return sp.diags(1.0 / mu) @ L


@pytest.mark.parametrize("spec", [
    ModelSpec("euclidean", dim=1, resolution=12),
    ModelSpec("euclidean", dim=2, resolution=10, extent=1.5),
    ModelSpec("euclidean", dim=3, resolution=8),
    ModelSpec("torus", dim=1, resolution=16),
    ModelSpec("torus", dim=2, resolution=9),
    ModelSpec("sphere", dim=2, resolution=12),
    ModelSpec("heisenberg", dim=3, resolution=9),
], ids=lambda s: f"{s.kind}{s.dim}")
def test_graph_laplacian_matches_full_coo_assembly(spec):
    model, _ = build_model(spec)
    sub = neumann_restrict(model, model.nodes[:, 0] <= np.median(model.nodes[:, 0]))
    for m in (model, sub):
        ref = _laplacian_from_full_coo(m.edge_form, m.mu)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(m.L, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_graph_laplacian_isolated_node_and_zero_conductance():
    # node 4 has no edge, and edge (1, 2) conducts nothing: both leave no entry
    ef = EdgeForm(np.array([0, 1, 1]), np.array([1, 2, 3]), np.array([1.0, 0.0, 2.0]), 5)
    mu = np.array([1.0, 2.0, 0.5, 4.0, 1.0])
    L, ref = graph_laplacian(ef, mu), _laplacian_from_full_coo(ef, mu)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(L, name), getattr(ref, name)), name
    assert L.indptr[-1] == L.indptr[-2] and 2 not in L.indices[L.indptr[1]:L.indptr[2]]


def _adjacency_from_coo(model, weights):
    # reference assembly: a float COO of 2E entries, each edge as (i, j) and
    # as (j, i), converted to CSR
    ef = model.edge_form
    w = model.edge_length if weights == "length" else np.ones(ef.n_edges)
    return sp.coo_matrix((np.concatenate([w, w]),
                          (np.concatenate([ef.i, ef.j]), np.concatenate([ef.j, ef.i]))),
                         shape=(model.n_nodes,) * 2).tocsr()


@pytest.mark.parametrize("name", ["torus1", "euclid2", "sphere", "heis"])
def test_adjacency_matches_coo_assembly(request, name):
    model = request.getfixturevalue(name)[0]
    got, ref = model.adjacency(), _adjacency_from_coo(model, "length")
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(ref, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    for source in (0, model.n_nodes // 2, model.n_nodes - 1):
        want = dijkstra(ref, directed=True, indices=source)
        assert np.array_equal(graph_distance(model, source).values, want), source


@pytest.mark.parametrize("check", ["neumann-interval", "neumann-square",
                                   "neumann-cap-sphere"])
def test_neumann_boundary_matches_a_unit_weight_adjacency(request, check):
    # the campaign's box and cap restrictions: a kept node is on the
    # boundary when the model marks it or a unit-weight edge leaves the subset
    spec = default_config().checks[check]
    model = request.getfixturevalue(spec["model"])[0]
    ctx = collections.namedtuple("Ctx", "model")(model)
    sub = _bind_neumann(ctx, {"domain": spec["domain"]}, 0)["submodel"]
    if spec["domain"] == "box":
        keep = np.all(np.abs(model.nodes) <= 0.5, axis=1)
    else:
        keep = graph_distance(model, node_nearest(model, [0, 0, 1])).values <= 0.8
    assert np.array_equal(sub.nodes, model.nodes[keep])
    cut = _adjacency_from_coo(model, "unit") @ (~keep).astype(float) > 0
    want = (model.boundary_mask | cut)[keep]
    assert want.any() and not want.all()
    assert np.array_equal(sub.boundary_mask, want)


@pytest.mark.parametrize("kind, dim", [(kind, dim) for kind, dims in MODEL_DIMS.items()
                                       for dim in dims])
def test_catalog_edge_lengths_are_positive(kind, dim):
    # neumann_restrict finds cut nodes through the lengths, so none may be 0
    model, _ = build_model(ModelSpec(kind, dim=dim, resolution=9))
    assert model.edge_length.shape == (model.edge_form.n_edges,)
    assert np.all(model.edge_length > 0)


@pytest.mark.parametrize("i, j", [([0, 1, 0], [1, 2, 1]), ([0, 1, 2], [1, 2, 2])],
                         ids=["repeated-edge", "loop"])
def test_adjacency_rejects_repeated_edges_and_loops(i, j):
    ef = EdgeForm(np.array(i), np.array(j), np.ones(3), 3)
    model = fields.DiscretizedModel("m", "euclidean", np.zeros((3, 1)), np.ones(3),
                                    ef, np.ones(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="repeats an edge or has a loop"):
        model.adjacency()


def _counted_laplacian(monkeypatch, corrupt=False):
    # graph_laplacian as the L property finds it: its calls are counted by
    # node count, and ``corrupt`` scales one off-diagonal entry by 1.001
    real, calls = graph_laplacian, []

    def assemble(ef, mu):
        calls.append(ef.n_nodes)
        L = real(ef, mu)
        if corrupt:
            L.data[np.flatnonzero(L.data > 0)[0]] *= 1.001
        return L
    monkeypatch.setattr(fields, "graph_laplacian", assemble)
    return calls


def test_graph_distance_and_balls_leave_laplacian_unassembled(monkeypatch):
    calls = _counted_laplacian(monkeypatch)
    model, _ = build_model(ModelSpec("heisenberg", dim=3, resolution=9))
    d = graph_distance(model, model.n_nodes // 2)
    ball_volumes(model, d.values, [0.3, 0.6])
    assert calls == [] and "_L" not in model.derived


@pytest.mark.parametrize("spec", [
    ModelSpec("torus", dim=1, resolution=16),
    ModelSpec("euclidean", dim=2, resolution=10),
    ModelSpec("sphere", dim=2, resolution=8),
    ModelSpec("heisenberg", dim=3, resolution=9),
], ids=lambda s: s.kind)
def test_corrupted_laplacian_fails_its_first_use(monkeypatch, spec):
    _counted_laplacian(monkeypatch, corrupt=True)
    model, _ = build_model(spec)          # the build assembles no L
    for _ in range(2):                    # a failed L is not kept
        with pytest.raises(AssertionError, match="self-test failed"):
            model.L


def test_neumann_restrict_assembles_its_laplacian_once(monkeypatch):
    model, _ = build_model(ModelSpec("euclidean", dim=2, resolution=12))
    model.L
    calls = _counted_laplacian(monkeypatch)
    sub = neumann_restrict(model, model.nodes[:, 0] <= 0)
    spectral_decompose(sub, k=4)
    check_operator_axioms(sub)
    assert calls == [sub.n_nodes]
    # and that first assembly is self-tested
    _counted_laplacian(monkeypatch, corrupt=True)
    with pytest.raises(AssertionError, match="self-test failed"):
        neumann_restrict(model, model.nodes[:, 0] <= 0)


def test_builder_arrays_are_owned_and_frozen():
    # the model keeps the arrays its builder wrote, read-only, and copies
    # one only to cast it
    model, _ = build_model(ModelSpec("heisenberg", dim=3, resolution=9))
    ef, vf = model.edge_form, model.vertical_form
    arrays = [model.nodes, model.mu, model.edge_length, model.boundary_mask,
              ef.i, ef.j, ef.c, vf.i, vf.j, vf.c]
    assert all(a.flags.owndata and not a.flags.writeable for a in arrays)
    i, j = np.array([0, 1], dtype=np.int32), np.array([1, 2])
    c = np.array([1.0, 2.0])
    ef = EdgeForm(i, j, c, 3)
    assert ef.i is i and ef.c is c and not i.flags.writeable
    assert not np.shares_memory(ef.j, j) and j.flags.writeable   # cast int64 -> int32
    nodes, mu = np.zeros((3, 1)), np.ones(3)
    m = fields.DiscretizedModel("m", "euclidean", nodes, mu, ef, np.ones(2),
                                np.zeros(3, dtype=bool))
    assert m.nodes is nodes and m.mu is mu
    with pytest.raises(ValueError, match="read-only"):
        mu[0] = 2.0
    d = graph_distance(m, 0)
    with pytest.raises(ValueError, match="read-only"):
        d.values[0] = 1.0


def test_field_and_spectrum_own_their_arrays():
    # a C-contiguous float input is kept and frozen; a strided or integer one
    # is copied, so a field never aliases a column of a larger array
    v = np.arange(6.0)
    f = ScalarField("m", v)
    assert np.shares_memory(f.values, v) and not v.flags.writeable
    block = np.arange(12.0).reshape(6, 2)
    ints = np.arange(6)
    for a in (block[:, 0], ints):
        g = ScalarField("m", a)
        assert not np.shares_memory(g.values, a) and a.flags.writeable
        assert g.values.dtype == float and g.values.flags.c_contiguous
        assert not g.values.flags.writeable
    for scalar in (1.0, np.array(2.0)):
        with pytest.raises(MismatchError, match="1-d"):
            ScalarField("m", scalar)
    lam, phi = np.array([0.0, 1.0]), np.eye(2)
    sd = SpectralData("m", lam, phi, 0.0, 0.0)
    assert sd.eigenvalues is lam and sd.eigenfields is phi
    assert not lam.flags.writeable and not phi.flags.writeable
    lam_int, phi_f = np.array([0, 1]), np.asfortranarray(np.eye(3)[:, :2])
    sd = SpectralData("m", lam_int, phi_f, 0.0, 0.0)
    for got, given in ((sd.eigenvalues, lam_int), (sd.eigenfields, phi_f)):
        assert not np.shares_memory(got, given) and given.flags.writeable
        assert got.flags.c_contiguous and not got.flags.writeable


def test_replace_shares_the_model_arrays(tiny_torus):
    model = tiny_torus[0]
    ef = model.edge_form
    copy = dataclasses.replace(model, edge_form=EdgeForm(ef.i, ef.j, 2 * ef.c, ef.n_nodes))
    for name in ("nodes", "mu", "edge_length", "boundary_mask"):
        assert np.shares_memory(getattr(copy, name), getattr(model, name)), name
    assert copy.edge_form.i is ef.i and "_L" not in copy.derived
    with pytest.raises(ValueError, match="read-only"):
        copy.nodes[0, 0] = 1.0
