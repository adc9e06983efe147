"""Geometry catalog: model spaces with exact metadata oracles.

Kinds
-----
euclidean    cell-centered grid on a box [-a, a]^n, reflecting (zero-Neumann)
             closure, uniform measure h^n, conductance h^(n-2)
torus        periodic grid, period 2 pi, uniform measure
sphere       latitude-longitude grid of S^2 (resolution mt: mt - 1 rows of
             2 mt nodes plus two pole cap cells), flux conductances of the
             divergence form, cell-area measure
heisenberg   group lattice for the first Heisenberg group: horizontal moves
             are the exact time-h flows of X = dx - (y/2) dz and
             Y = dy + (x/2) dz, which close on the lattice when the vertical
             spacing is h^2/2; the four horizontal edges assemble the
             sub-Laplacian and the vertical edge form carries Z = dz

All truncations are reflecting, so mass conservation is exact and the
constant field is in the kernel of L globally.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.sparse.csgraph import connected_components

from .fields import CDParameters, DiscretizedModel, EdgeForm, NotApplicableError, index_dtype


class UnsupportedModelError(ValueError):
    """Requested (kind, dim) combination is not in the catalog."""


# the options each model kind reads; any other option is an error
MODEL_OPTIONS = {"euclidean": (), "torus": (), "sphere": (),
                 "heisenberg": ("z_extent",)}
# the kinds truncated to a box of half-width ``extent``; the others have none
EXTENT_KINDS = ("euclidean", "heisenberg")
# the dimensions each model kind is built in
MODEL_DIMS = {"euclidean": (1, 2, 3), "torus": (1, 2), "sphere": (2,),
              "heisenberg": (3,)}
# the volume of the Euclidean unit ball, by dimension
UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4 * np.pi / 3}


@dataclass(frozen=True)
class ModelSpec:
    """Model parameters; ``extent`` (default 1.0) is set on ``EXTENT_KINDS``
    only.  Error messages start with the offending field."""

    kind: str
    dim: int = 2
    resolution: int = 16
    extent: float | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_OPTIONS:
            raise UnsupportedModelError(f"kind: unknown model kind {self.kind!r}")
        if self.dim not in MODEL_DIMS[self.kind]:
            raise UnsupportedModelError(
                f"dim: a {self.kind} model has dim in {list(MODEL_DIMS[self.kind])}, "
                f"got {self.dim!r}")
        if self.resolution < 8:
            raise ValueError("resolution: must be at least 8")
        if self.kind in EXTENT_KINDS:
            object.__setattr__(self, "extent", 1.0 if self.extent is None else self.extent)
            if not (self.extent > 0):
                raise ValueError("extent: truncated kinds need a positive extent")
        elif self.extent is not None:
            raise ValueError(f"extent: a {self.kind} model has no extent")
        for key in self.options:
            if key not in MODEL_OPTIONS[self.kind]:
                raise ValueError(f"options.{key}: a {self.kind} model reads no such "
                                 f"option (it reads: {list(MODEL_OPTIONS[self.kind])})")


@dataclass(frozen=True)
class GeometryOracle:
    """Exact per-model metadata; fields are None when no closed form exists."""

    dim: int
    ricci_lower: float
    cd_params: Optional[CDParameters] = None
    exact_distance: Optional[Callable] = None          # (x, Y) -> ndarray, broadcast over rows of Y
    exact_ball_volume: Optional[Callable] = None       # (x, r) -> float
    exact_kernel: Optional[Callable] = None            # (t, x, y) -> float
    exact_eigenvalues: Optional[Callable] = None       # count -> ndarray
    total_measure: Optional[float] = None
    diameter: Optional[float] = None


def exact_heat_kernel(oracle: GeometryOracle, t: float, x, y) -> float:
    """Evaluate the oracle heat kernel; positive and symmetric in (x, y)."""
    if oracle.exact_kernel is None:
        raise UnsupportedModelError(
            "oracle carries no closed-form kernel; use the discrete kernel"
        )
    if not (t > 0):
        raise ValueError("kernel time must be positive")
    return float(oracle.exact_kernel(t, np.asarray(x, float), np.asarray(y, float)))


def model_hash(model: DiscretizedModel) -> str:
    """Structural hash of a model (keys spectral caches)."""
    h = hashlib.sha256()
    h.update(model.kind.encode())
    h.update(model.nodes.tobytes())
    h.update(model.mu.tobytes())
    h.update(model.edge_form.i.tobytes())
    h.update(model.edge_form.j.tobytes())
    h.update(model.edge_form.c.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# grid kinds (euclidean box, torus)


def _axis_edges(shape, axis, wrap):
    """Index pairs of nearest neighbours along one axis of a C-ordered grid."""
    a = np.moveaxis(np.arange(int(np.prod(shape))).reshape(shape), axis, 0)
    if wrap and shape[axis] > 2:
        a = np.concatenate([a, a[:1]])      # the wrap pairs (last, first) come last
    return a[:-1].ravel(), a[1:].ravel()


def _build_grid(spec: ModelSpec, periodic: bool):
    dim, m = spec.dim, spec.resolution
    if periodic:
        period = 2 * np.pi
        h = period / m
        axis = -period / 2 + h * np.arange(m)
    else:
        a = spec.extent
        h = 2 * a / m
        axis = -a + h * (np.arange(m) + 0.5)   # cell centers tile [-a, a]
    shape = (m,) * dim
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    n = nodes.shape[0]

    ii, jj = zip(*(_axis_edges(shape, ax, wrap=periodic) for ax in range(dim)))
    i, j = np.concatenate(ii), np.concatenate(jj)
    c = np.full(i.shape, h ** (dim - 2), dtype=float)
    ef = EdgeForm(i, j, c, n)
    mu = np.full(n, h ** dim)

    # a box node is on the boundary when any of its grid indices is 0 or m - 1
    index = np.indices(shape).reshape(dim, n)
    boundary = np.any((index == 0) | (index == m - 1), axis=0) & (not periodic)

    lengths = np.linalg.norm(nodes[j] - nodes[i], axis=1)
    if periodic:
        lengths = np.minimum(lengths, np.full_like(lengths, h))  # wrap edges
    # the generator is a Kronecker sum of 1-D second differences (see
    # ``semigroup.spectral_decompose``); ``neumann_restrict`` drops the marker
    meta = {"h": h, "structure": ("torus" if periodic else "box", m, dim)}
    if periodic:
        meta["period"] = period
    return nodes, mu, ef, lengths, boundary, meta


def _euclidean_oracle(dim: int, extent: float) -> GeometryOracle:
    def kernel(t, x, y):
        d2 = float(np.sum((x - y) ** 2))
        return (4 * np.pi * t) ** (-dim / 2) * np.exp(-d2 / (4 * t))

    return GeometryOracle(
        dim=dim,
        ricci_lower=0.0,
        exact_distance=lambda x, Y: np.linalg.norm(np.asarray(Y) - np.asarray(x), axis=-1),
        exact_ball_volume=lambda x, r: UNIT_BALL_VOLUME[dim] * r ** dim,
        exact_kernel=kernel,
        total_measure=(2 * extent) ** dim,
        diameter=2 * extent * np.sqrt(dim),
    )


def _torus_oracle(dim: int, period: float) -> GeometryOracle:
    def dist(x, Y):
        d = np.abs(np.asarray(Y) - np.asarray(x))
        d = np.minimum(d, period - d)
        return np.linalg.norm(d, axis=-1)

    def kernel(t, x, y):
        # wrapped Gaussian; images decay fast for t << period^2
        nimg = max(2, int(np.ceil(4 * np.sqrt(t) / period)) + 2)
        total = 1.0
        x, y = np.atleast_1d(x), np.atleast_1d(y)
        for d in range(dim):
            shifts = period * np.arange(-nimg, nimg + 1)
            total *= np.sum(
                (4 * np.pi * t) ** -0.5 * np.exp(-((x[d] - y[d] + shifts) ** 2) / (4 * t))
            )
        return total

    def eigenvalues(count):
        # multiplicity 2 for every nonzero frequency, per axis combination
        kmax = int(np.ceil(count ** (1.0 / dim))) + 2
        rng = np.arange(-kmax, kmax + 1)
        grids = np.meshgrid(*([rng] * dim), indexing="ij")
        lam = sum((2 * np.pi / period * g.astype(float)) ** 2 for g in grids)
        return np.sort(lam.ravel())[:count]

    return GeometryOracle(
        dim=dim,
        ricci_lower=0.0,
        exact_distance=dist,
        exact_kernel=kernel,
        exact_eigenvalues=eigenvalues,
        total_measure=period ** dim,
        diameter=period * np.sqrt(dim) / 2,
    )


# ---------------------------------------------------------------------------
# sphere


def _legendre_values(lmax: int, x: float) -> np.ndarray:
    """P_0(x) .. P_lmax(x) by the three-term recurrence."""
    p = np.empty(lmax + 1)
    p[0] = 1.0
    if lmax >= 1:
        p[1] = x
    for l in range(1, lmax):
        p[l + 1] = ((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1)
    return p


def sphere_zonal_kernel(t: float, cos_angle: float, tail: float = 1e-12,
                        lmax_cap: int = 4000) -> float:
    """Zonal heat-kernel series on S^2 with a rigorous truncation rule.

    Truncation degree L is the smallest with exp(-L(L+1)t) (2L+1)^2 below
    ``tail``; the discarded majorant sum is below that bound for t > 0.
    """
    if not (t > 0):
        raise ValueError("kernel time must be positive")
    L = 1
    while np.exp(-L * (L + 1) * t) * (2 * L + 1) ** 2 >= tail:
        L += 1
        if L > lmax_cap:
            raise ValueError("time too small for the zonal series cap")
    ls = np.arange(L + 1)
    p = _legendre_values(L, float(np.clip(cos_angle, -1.0, 1.0)))
    return float(np.sum(np.exp(-ls * (ls + 1) * t) * (2 * ls + 1) * p) / (4 * np.pi))


def latitude_sphere(mt: int):
    """Conservative latitude-longitude discretization of S^2 with pole cells.

    Interior rows sit at colatitude i * dth (i = 1 .. mt-1) with 2 mt
    longitudes; the two poles are genuine cap cells.  Conductances are the
    exact flux coefficients of the divergence form of the Laplace-Beltrami
    operator, so the scheme is pointwise second-order accurate away from the
    coordinate degeneracy.  The first four rows adjacent to each pole change
    stencil character; second-order forms are not trusted there and the
    builder exports a trusted-node mask.
    """
    mp = 2 * mt
    dth = np.pi / mt
    dph = 2 * np.pi / mp
    th = np.arange(1, mt) * dth
    nrows = mt - 1
    n = nrows * mp + 2
    north, south = n - 2, n - 1
    idx = np.arange(nrows * mp).reshape(nrows, mp)
    T, P = np.meshgrid(th, np.arange(mp) * dph, indexing="ij")

    mu = np.empty(n)
    mu[: nrows * mp] = (np.sin(T) * dth * dph).ravel()
    mu[north] = mu[south] = 2 * np.pi * (1 - np.cos(dth / 2))

    ii, jj, cc, ll = [], [], [], []
    for s in range(mp):
        s2 = (s + 1) % mp
        ii.append(idx[:, s])
        jj.append(idx[:, s2])
        cc.append(dth / (np.sin(th) * dph))
        ll.append(np.sin(th) * dph)
    for r in range(nrows - 1):
        ii.append(idx[r, :])
        jj.append(idx[r + 1, :])
        cc.append(np.full(mp, np.sin((r + 1.5) * dth) * dph / dth))
        ll.append(np.full(mp, dth))
    for pole, row in ((north, 0), (south, nrows - 1)):
        ii.append(np.full(mp, pole))
        jj.append(idx[row, :])
        cc.append(np.full(mp, np.sin(dth / 2) * dph / dth))
        ll.append(np.full(mp, dth))

    i = np.concatenate([np.asarray(a, np.int64) for a in ii])
    j = np.concatenate([np.asarray(a, np.int64) for a in jj])
    c = np.concatenate(cc)
    lengths = np.concatenate(ll)

    nodes = np.zeros((n, 3))
    nodes[: nrows * mp] = np.stack(
        [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
    ).reshape(-1, 3)
    nodes[north] = (0.0, 0.0, 1.0)
    nodes[south] = (0.0, 0.0, -1.0)

    trusted = np.zeros(n, dtype=bool)
    k = 4                       # untrusted rows next to each pole
    if nrows > 2 * k:
        block = np.zeros((nrows, mp), dtype=bool)
        block[k : nrows - k, :] = True
        trusted[: nrows * mp] = block.ravel()
    return i, j, c, mu, nodes, lengths, trusted, dth


def _sphere_oracle() -> GeometryOracle:
    def dist(x, Y):
        # arctan2 of sine and cosine is exact at 0 and pi, where arccos of
        # the dot product loses half the digits
        Y, x = np.asarray(Y), np.asarray(x)
        return np.arctan2(np.linalg.norm(np.cross(Y, x), axis=-1), Y @ x)

    def kernel(t, x, y):
        return sphere_zonal_kernel(t, float(np.dot(x, y)))

    def eigenvalues(count):
        lam = []
        l = 0
        while len(lam) < count:
            lam.extend([l * (l + 1)] * (2 * l + 1))
            l += 1
        return np.array(lam[:count], dtype=float)

    return GeometryOracle(
        dim=2,
        ricci_lower=1.0,
        exact_distance=dist,
        exact_ball_volume=lambda x, r: 2 * np.pi * (1 - np.cos(min(r, np.pi))),
        exact_kernel=kernel,
        exact_eigenvalues=eigenvalues,
        total_measure=4 * np.pi,
        diameter=np.pi,
    )


# ---------------------------------------------------------------------------
# heisenberg group lattice


def _sublattice_ids(i, j, k, m_half: int, mz_half: int) -> np.ndarray:
    """Ids of lattice points (i, j, k), |i|, |j| <= m_half, |k| <= mz_half, on
    the even sublattice (k + i j even), numbered in (i, j, k) order: column
    (i, j) holds k = -mz_half + q, ..., mz_half - q in steps of 2, with
    q = (i j + mz_half) mod 2.  Any other point raises ``ValueError``."""
    if np.any(((k + i * j) & 1) | (np.abs(i) > m_half) | (np.abs(j) > m_half)
              | (np.abs(k) > mz_half)):
        raise ValueError("lattice point off the even sublattice or outside the box")
    xs = np.arange(-m_half, m_half + 1)
    counts = mz_half + 1 - ((np.multiply.outer(xs, xs).ravel() + mz_half) & 1)
    column = (i + m_half) * xs.size + j + m_half
    return (np.cumsum(counts) - counts)[column] + (k + mz_half - ((i * j + mz_half) & 1)) // 2


def _build_heisenberg(spec: ModelSpec):
    """Group lattice for the first Heisenberg group.

    Horizontal moves are exact unit-time-h flows of X and Y; they close on
    the lattice with vertical spacing hz = h^2/2.  The elementary X-Y
    commutator loop shifts the vertical index by 2, so (k + i j) mod 2 is
    invariant under horizontal moves: the model lives on the even-parity
    sublattice (one horizontally connected component) and vertical edges
    step by 2 hz.  Only that sublattice is enumerated, in the order of
    ``_sublattice_ids``.
    """
    m_half = (spec.resolution - 1) // 2
    h = spec.extent / m_half
    hz = h * h / 2.0
    z_extent = float(spec.options.get("z_extent", spec.extent / 8.0))
    mz_half = max(4, int(round(z_extent / hz)))

    # slot s of column (i, j) holds k = -mz_half + q + 2 s while k <= mz_half
    xs = np.arange(-m_half, m_half + 1, dtype=np.int32)
    I, J, S = np.meshgrid(xs, xs, np.arange(mz_half + 1, dtype=np.int32),
                          indexing="ij", sparse=True)
    K = ((I * J + mz_half) & 1) - mz_half + 2 * S
    keep = K <= mz_half
    ib, jb, kb = (np.broadcast_to(a, K.shape)[keep] for a in (I, J, K))
    del K, keep
    n = ib.size
    ids = np.arange(n, dtype=index_dtype(n))

    # every whole-lattice array is written once, into the array the model keeps
    nodes = np.empty((n, 3))
    for col, (a, step) in enumerate(((ib, h), (jb, h), (kb, hz))):
        np.multiply(a, step, out=nodes[:, col])

    # X flow: (x, y, z) -> (x + h, y, z - h y / 2): lattice move (1, 0, -j)
    okx = (ib + 1 <= m_half) & (np.abs(kb - jb) <= mz_half)
    # Y flow: (x, y, z) -> (x, y + h, z + h x / 2): lattice move (0, 1, +i)
    oky = (jb + 1 <= m_half) & (np.abs(kb + ib) <= mz_half)
    nx = np.count_nonzero(okx)
    i = np.empty(nx + np.count_nonzero(oky), ids.dtype)       # ids = node order
    j = np.empty_like(i)
    np.compress(okx, ids, out=i[:nx])
    np.compress(oky, ids, out=i[nx:])
    j[:nx] = _sublattice_ids(ib[okx] + 1, jb[okx], kb[okx] - jb[okx], m_half, mz_half)
    j[nx:] = _sublattice_ids(ib[oky], jb[oky] + 1, kb[oky] + ib[oky], m_half, mz_half)
    del okx, oky, ib, jb
    mu_cell = h * h * (2 * hz)    # each sublattice node owns two hz-cells
    ef = EdgeForm(i, j, np.full(i.shape, mu_cell / (h * h)), n)
    mu = np.full(n, mu_cell)

    # vertical form: Z = dz sampled by the in-sublattice step 2 hz, which is
    # the next node of the same column
    zi = np.compress(kb + 2 <= mz_half, ids)
    del kb, ids
    vertical = EdgeForm(zi, zi + 1, np.full(zi.shape, mu_cell / (2 * hz) ** 2), n)

    # boundary: any missing structural move (4 horizontal + 2 vertical)
    boundary = np.zeros(n, dtype=bool)
    for form, moves in ((ef, 4), (vertical, 2)):
        deg = np.bincount(form.i, minlength=n)
        deg += np.bincount(form.j, minlength=n)
        boundary |= deg < moves
    del deg

    # horizontal edge lengths: time to traverse the unit-speed flow
    lengths = np.full(ef.n_edges, h)

    meta = {"h": h, "z_step": 2 * hz}
    return nodes, mu, ef, lengths, boundary, meta, vertical


def _heisenberg_oracle(total: float) -> GeometryOracle:
    return GeometryOracle(
        dim=3,
        ricci_lower=0.0,
        cd_params=CDParameters(rho1=0.0, rho2=0.5, kappa=1.0, n=2.0),
        total_measure=total,
    )


# ---------------------------------------------------------------------------
# entry point


def build_model(spec: ModelSpec):
    """Build (DiscretizedModel, GeometryOracle)."""
    vertical = None
    if spec.kind == "euclidean":
        nodes, mu, ef, lengths, boundary, meta = _build_grid(spec, periodic=False)
        oracle = _euclidean_oracle(spec.dim, spec.extent)
        model_id = f"euclidean{spec.dim}d-m{spec.resolution}-a{spec.extent:g}"
    elif spec.kind == "torus":
        nodes, mu, ef, lengths, boundary, meta = _build_grid(spec, periodic=True)
        oracle = _torus_oracle(spec.dim, meta["period"])
        model_id = f"torus{spec.dim}d-m{spec.resolution}-P{meta['period']:g}"
    elif spec.kind == "sphere":
        i, j, c, mu, nodes, lengths, trusted, dth = latitude_sphere(spec.resolution)
        ef = EdgeForm(i, j, c, mu.size)
        boundary = np.zeros(mu.size, dtype=bool)
        # the operator commutes with the longitude shift
        meta = {"h": dth, "trusted_mask": trusted,
                "structure": ("sphere", spec.resolution)}
        model_id = f"sphere2-lat{spec.resolution}"
        oracle = _sphere_oracle()
    else:  # heisenberg
        nodes, mu, ef, lengths, boundary, meta, vertical = _build_heisenberg(spec)
        oracle = _heisenberg_oracle(total=float(mu.sum()))
        model_id = (
            f"heisenberg-m{spec.resolution}-a{spec.extent:g}"
            f"-z{spec.options.get('z_extent', spec.extent / 8.0):g}"
        )

    model = DiscretizedModel(
        model_id=model_id,
        kind=spec.kind,
        nodes=nodes,
        mu=mu,
        edge_form=ef,
        edge_length=lengths,
        boundary_mask=boundary,
        meta=meta,
        vertical_form=vertical,
    )
    if spec.kind == "heisenberg":
        # the adjacency is symmetric: its strong components are the graph's,
        # and the graph-distance checks reuse it
        ncomp, _ = connected_components(model.adjacency(), connection="strong")
        if ncomp != 1:
            raise UnsupportedModelError("horizontal graph is disconnected; widen the box")
    return model, oracle


def node_nearest(model: DiscretizedModel, point) -> int:
    """Index of the node closest to a chart point; NotApplicableError if the
    point's dimension is not the chart's."""
    p = np.asarray(point, dtype=float)
    if p.shape != model.nodes.shape[1:]:
        raise NotApplicableError(f"point {p.tolist()} has {p.size} coordinates; the "
                                 f"chart of model {model.model_id!r} has "
                                 f"{model.nodes.shape[1]}")
    # column by column, summed in the order of a row sum, so no (N, d)
    # temporary is made
    d2 = (model.nodes[:, 0] - p[0]) ** 2
    for k in range(1, p.size):
        d2 += (model.nodes[:, k] - p[k]) ** 2
    return int(np.argmin(d2))
