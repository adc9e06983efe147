"""The heat semigroup: spectral decomposition, exact flow, reference stepper.

A model has one heat semigroup P_t = exp(tL).  ``apply_semigroup`` is its
exact flow, and every check evolves by it: through the model's
diagonalized blocks (``_blocks``) on a model that ``build_model`` marks in
``meta["structure"]`` (boxes, tori, the latitude sphere), where it agrees
with a dense ``expm`` to a few times 1e-14 of the sup, and by a Chebyshev
series with an error bound for every input on any other model.  Either
state is built once per model and kept in ``model.derived``.
``CrankNicolson`` stepping, solved by conjugate gradients, stays as a
reference for tests and benchmarks; no check runs it.

``spectral_decompose`` returns eigenpairs of the symmetrized matrix
D^{1/2} L D^{-1/2} (D = diag mu), mapped back to mu-orthonormal
eigenfields: from the blocks on a marked model, by shift-invert Lanczos
(ARPACK) or a dense subset solve on any other.  Inside every cluster of
equal eigenvalues the basis is then rotated to a canonical one fixed by
constant probe fields, so no eigenfield of a cluster that k leaves whole
depends on the route, the solver's start vector or the BLAS thread count.

Every solve is a function of the model alone: the Lanczos start vector,
the cluster probes and the blocks' self-test probe are drawn from the
constant ``PROBE_SEED``, and nothing that a run sets reaches a solver.
"""
from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import daxpy
from scipy.sparse.csgraph import connected_components

from .fields import PROBE_SEED, DiscretizedModel, EdgeForm, ScalarField, frozen
from .models import model_hash


class SolverError(RuntimeError):
    """A solver did not converge within its budget, or a structure marker
    does not fit the operator."""


CACHE_MAGIC = b"HLSPEC01"
# header version: 2 since eigenfields are in the canonical cluster basis,
# 3 since the header carries a CRC-32 of the eigenvalue and eigenfield blocks,
# 4 since structured models keep the structured route's vectors of a cluster
# that k cuts (earlier files hold a generic solver's), 5 since the Lanczos
# start vector is drawn from ``PROBE_SEED`` (a version-4 file of an unmarked
# model may hold a solve started from a vector that the run chose, so a warm
# run could differ from a cold one)
CACHE_VERSION = 5
# the Chebyshev series of ``apply_semigroup`` drops weight below this, a
# bound on its error relative to the 2-norm of the input: below double
# roundoff
CHEB_TAIL = 1e-17
# rows or columns of an (N, k) eigenfield block that the spectral path
# handles at a time (``_runs``), so that no step holds a second N x k array;
# 48 keeps run-by-run products bit-identical to one-shot ones (``_runs``)
_BLOCK = 48


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues of -L with mu-orthonormal eigenfields, owned
    through ``fields.frozen``."""

    model_id: str
    eigenvalues: np.ndarray     # (k,) ascending, nonnegative
    eigenfields: np.ndarray     # (N, k), columns mu-orthonormal
    residual: float             # max L2(mu) norm of L phi + lambda phi
    gram_error: float

    def __post_init__(self):
        for name in ("eigenvalues", "eigenfields"):
            object.__setattr__(self, name, frozen(getattr(self, name), float))
        lam = self.eigenvalues
        scale = max(1.0, float(lam[-1])) if lam.size else 1.0
        if lam.size and lam[0] > 1e-8 * scale:
            raise SolverError(f"lowest eigenvalue {lam[0]:g} is not ~0")
        if self.gram_error > 1e-8:
            raise SolverError(f"eigenfield Gram error {self.gram_error:g}")

    @property
    def count(self) -> int:
        return self.eigenvalues.shape[0]


def _symmetrized(model: DiscretizedModel):
    D = sp.diags(model.mu)
    C = -(D @ model.L)
    C = (C + C.T) * 0.5
    dm = 1.0 / np.sqrt(model.mu)
    A = sp.diags(dm) @ C @ sp.diags(dm)
    return A.tocsr(), dm


def _fourier_basis(m: int):
    """(freq, V): the real Fourier basis of period m, orthonormal columns of
    V sampled at 0 .. m - 1.  One cos wave at frequency 0 and, for even m,
    at m / 2; a cos and then a sin wave of each frequency between.  ``freq``
    holds each column's frequency."""
    a = np.arange(m // 2 + 1)
    freq = np.repeat(a, np.where((a > 0) & (2 * a < m), 2, 1))
    is_sin = np.r_[False, freq[1:] == freq[:-1]]     # the second of a pair
    phase = 2 * np.pi * (np.outer(np.arange(m), freq) % m) / m
    V = np.where(is_sin, np.sin(phase), np.cos(phase))
    V /= np.linalg.norm(V, axis=0)
    return freq, V


def _runs(n: int) -> list[slice]:
    """Slices of 0 .. n - 1 in runs of ``_BLOCK``, the remainder joined to
    the last run.

    A product formed run by run then rounds as the one-shot product does,
    as measured with OpenBLAS 0.3.31 at one BLAS thread against 32 or more
    columns.  Each run starts at a multiple of 48, a multiple of the tile
    heights of its gemm kernels, so every row lands in the same tile; and
    no run is under 48 rows (unless it is the only one), past the
    small-matrix kernel that takes products of about 1000 entries or
    fewer.  With more BLAS threads a one-shot product of 100 or more
    columns may be split at other rows and differ at roundoff; the 64
    columns of ``check_kernel_laws`` give the same bits at 1 and 2 threads.
    """
    edges = list(range(0, n, _BLOCK))[:max(1, n // _BLOCK)] + [n]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class _GridBlocks:
    """A box or torus generator with uniform mu as its diagonalized 1-D factor.

    The symmetrized operator is the Kronecker sum of one 1-D second
    difference per axis.  Its eigenvectors, the columns of ``V``, are
    cos(pi a (i + 1/2) / m) on a box axis (theta_a = pi a / m) and the real
    Fourier waves of ``_fourier_basis`` on a periodic axis
    (theta_a = 2 pi a / m), with eigenvalues 4 w sin^2(theta_a / 2), where
    w is the coupling of neighbouring nodes read from ``A``.  ``total``
    holds the eigenvalue of every tensor product, indexed by its m^d modes.
    """

    def __init__(self, A, structure):
        kind, m, dim = structure
        n = A.shape[0]
        if m ** dim != n:
            raise SolverError(f"{kind} marker says {m}^{dim} nodes, the model has {n}")
        w1 = -A[0, 1]                # nodes 0 and 1 neighbour along the last axis
        if kind == "box":
            freq = np.arange(m)
            theta = np.pi * freq / m
            V = np.cos(np.pi * (np.outer(2 * np.arange(m) + 1, freq) % (4 * m)) / (2 * m))
            V /= np.linalg.norm(V, axis=0)
        else:
            freq, V = _fourier_basis(m)
            theta = 2 * np.pi * freq / m
        lam1 = 4 * w1 * np.sin(theta / 2) ** 2
        total = lam1
        for _ in range(dim - 1):
            total = np.add.outer(total, lam1)
        self.V, self.total = V, total

    def apply(self, v: np.ndarray, fn) -> np.ndarray:
        """V diag(fn(total)) V^T, with V the d-fold tensor power of the 1-D
        factor, applied to ``v`` one axis at a time: each contraction takes
        the first axis and appends the result last."""
        c = v.reshape(self.total.shape)
        for _ in range(c.ndim):
            c = np.tensordot(c, self.V, axes=(0, 0))
        c *= fn(self.total)
        for _ in range(c.ndim):
            c = np.tensordot(c, self.V, axes=(0, 1))
        return c.ravel()

    def pairs(self, k: int):
        """The k lowest pairs: the m^d sums ranked by a stable argsort over
        the lexicographic multi-index, the k lowest as tensor products.
        The products are written into the (N, k) array returned, one run
        of rows (``_runs``) at a time, so each factor is gathered for one
        run only."""
        shape, n = self.total.shape, self.total.size
        order = np.argsort(self.total.ravel(), kind="stable")[:k]
        modes = np.unravel_index(order, shape)
        U = np.ones((n, k))
        for r in _runs(n):
            coords = np.unravel_index(np.arange(r.start, r.stop), shape)
            for ax in range(len(shape)):
                U[r] *= self.V[np.ix_(coords[ax], modes[ax])]
        return self.total.ravel()[order], U


class _SphereBlocks:
    """The latitude sphere's symmetrized operator as diagonalized longitude blocks.

    Rows of 2 mt cells are numbered row by row, then the north and south
    pole cells.  The operator commutes with the longitude shift, so the
    orthonormal longitude waves (``_fourier_basis``: the columns of
    ``waves``, of frequency ``freq``) split it into mt + 1 real tridiagonal
    blocks (P. J. Davis, *Circulant Matrices*, 1979).  For a wave of frequency m, ``A``
    acts on the row amplitudes as a block whose diagonal is the row's
    diagonal plus 2 cos(pi m / mt) times its longitude coupling; block 0
    also holds the poles, coupled to their rows by sqrt(2 mt) times one
    pole entry.  ``blocks[m]`` is the block's (eigenvalues, eigenvectors),
    block 0's with the north pole first and the south pole last.  The
    coefficients are read at longitude 0 only.
    """

    def __init__(self, A, structure):
        mt = structure[1]
        self.mp, self.nrows = mp, nrows = 2 * mt, mt - 1
        n = A.shape[0]
        if nrows * mp + 2 != n:
            raise SolverError(f"sphere marker says lat{mt}, the model has {n} nodes")
        north, south = n - 2, n - 1
        first = np.arange(nrows) * mp                     # longitude 0 of each row
        diag = A.diagonal()
        along = np.asarray(A[first, first + 1]).ravel()
        across = np.asarray(A[first[:-1], first[1:]]).ravel()
        pole_n, pole_s = A[north, first[0]], A[south, first[-1]]
        self.blocks = []
        for m in range(mt + 1):
            d = diag[first] + 2 * np.cos(np.pi * m / mt) * along
            e = across
            if m == 0:
                d = np.concatenate([[diag[north]], d, [diag[south]]])
                e = np.concatenate([[np.sqrt(mp) * pole_n], across, [np.sqrt(mp) * pole_s]])
            self.blocks.append(sla.eigh_tridiagonal(d, e))
        self.freq, self.waves = _fourier_basis(mp)

    def apply(self, v: np.ndarray, fn) -> np.ndarray:
        """The sum over blocks of u diag(fn(w)) u^T, applied to ``v``: project
        the rows onto the waves, act block by block, map back."""
        nrows, mp = self.nrows, self.mp
        amp = v[:nrows * mp].reshape(nrows, mp) @ self.waves
        for m, (w, u) in enumerate(self.blocks):
            if m == 0:
                b = u @ (fn(w) * (u.T @ np.r_[v[-2], amp[:, 0], v[-1]]))
                poles, amp[:, 0] = b[[0, -1]], b[1:-1]
            else:
                cols = self.freq == m
                amp[:, cols] = u @ (fn(w)[:, None] * (u.T @ amp[:, cols]))
        return np.concatenate([(amp @ self.waves.T).ravel(), poles])

    def pairs(self, k: int):
        """The k lowest pairs: block eigenvectors times their longitude
        waves, multiplied straight into the (N, k) array returned."""
        zero = np.zeros(self.nrows)
        lam = np.concatenate([self.blocks[m][0] for m in self.freq])
        vecs = np.hstack([self.blocks[m][1] if m == 0
                          else np.vstack([zero, self.blocks[m][1], zero])
                          for m in self.freq])
        col = np.repeat(np.arange(self.mp), [self.blocks[m][0].size for m in self.freq])
        order = np.argsort(lam, kind="stable")[:k]
        amp, waves = vecs[:, order], self.waves[:, col[order]]
        U = np.empty((self.nrows * self.mp + 2, k))
        np.multiply(amp[1:-1, None, :], waves[None, :, :],
                    out=U[:-2].reshape(self.nrows, self.mp, k))
        U[-2], U[-1] = amp[0], amp[-1]
        return lam[order], U


_BLOCKS = {"box": _GridBlocks, "torus": _GridBlocks, "sphere": _SphereBlocks}


def _blocks(model: DiscretizedModel):
    """(blocks, dm) of a structure-marked model, or None for an unmarked one.

    Built once per model and kept in ``model.derived``; the symmetrized
    operator A they are read from is not kept.  At the first build the
    blocks applied to a fixed probe vector must reproduce ``A @ v`` to 1e-9
    of each row's |A| |v|, or ``SolverError`` is raised, so a marker that
    does not fit the operator stays loud.
    """
    structure = model.meta.get("structure")
    if structure is None:
        return None
    if "_blocks" not in model.derived:
        if structure[0] not in _BLOCKS:
            raise SolverError(f"unknown structure marker {structure!r}")
        A, dm = _symmetrized(model)
        blocks = _BLOCKS[structure[0]](A, structure)
        v = np.random.default_rng(PROBE_SEED).standard_normal(model.n_nodes)
        err = np.abs(blocks.apply(v, lambda w: w) - A @ v)
        rel = float(np.max(err / (abs(A) @ np.abs(v))))
        if not rel <= 1e-9:
            raise SolverError(f"the blocks of {model.model_id} miss the operator by "
                              f"{rel:g} of a row; the {structure[0]!r} marker does not fit")
        model.derived["_blocks"] = (blocks, dm)
    return model.derived["_blocks"]


def spectral_decompose(model: DiscretizedModel, k: int) -> SpectralData:
    """k lowest eigenpairs of -L in the mu-weighted inner product.

    Three routes:

    * structured, when ``build_model`` marked the model in
      ``meta["structure"]`` (euclidean dims 1-3, torus dims 1-2, sphere):
      the k lowest pairs of its ``_blocks``, which raise ``SolverError`` on
      a marker that does not fit.  ``neumann_restrict`` submodels carry no
      marker;
    * shift-invert ``eigsh`` when N > 10 k (its start vector is drawn from
      ``PROBE_SEED``; ``SolverError`` if it does not converge);
    * otherwise a dense solve of the k lowest pairs only, which holds an
      N x N matrix.

    The (N, k) array a route returns becomes the eigenfields, and no later
    step allocates a second N x k array.  The structured route writes each
    pair into it (the sphere also holds an (mt + 1) x N table of its block
    eigenvectors); ``eigsh`` reorders its vectors into a copy.  The scaling
    to mu-orthonormal fields and the cluster rotation work in place, one
    cluster gathered at a time.  The Gram error (its entries on and below
    the diagonal) and the residual max ||L phi + lambda phi||_mu are formed
    over runs of ``_BLOCK`` columns (``_runs``): each run holds a copy of
    its columns and one N x run product at a time.

    Each cluster of equal eigenvalues (``eigenvalue_clusters``) is then put
    into the basis of ``canonical_basis``, which also fixes the sign of
    simple eigenfields, so a cluster that k leaves whole does not depend on
    the route or the start vector.  A cluster that k cuts (euclid2 at k = 500)
    keeps the vectors the route retained: on structured models the first
    ones of a fixed order, so the cut is deterministic; on the generic
    routes whichever the solver returned.
    """
    n = model.n_nodes
    if k > n:
        raise ValueError("cannot retain more eigenpairs than nodes")
    structured = _blocks(model)
    if structured is not None:
        blocks, dm = structured
        w, U = blocks.pairs(k)
    else:
        A, dm = _symmetrized(model)
        if n > 10 * k:
            v0 = np.random.default_rng(PROBE_SEED).standard_normal(n)
            shift = 1e-2 * float(A.diagonal().mean())
            try:
                w, U = spla.eigsh(A, k=k, sigma=-shift, which="LM", v0=v0)
            except spla.ArpackNoConvergence as exc:
                raise SolverError(
                    "eigensolver did not converge; raise the subspace size or "
                    "lower the resolution"
                ) from exc
            order = np.argsort(w)
            w, U = w[order], U[:, order]
        else:
            w, U = sla.eigh(A.toarray(), subset_by_index=[0, k - 1])
    w = np.clip(w, 0.0, None)
    U *= dm[:, None]
    phi = canonical_basis(w, U, model.mu)
    gram_error = residual = 0.0
    for c in _runs(k):
        block = phi[:, c].copy()
        # the Gram matrix is symmetric: of columns c, rows c.start on suffice
        gram = phi[:, c.start:].T @ (model.mu[:, None] * block)
        gram[np.diag_indices(block.shape[1])] -= 1.0
        gram_error = max(gram_error, float(np.max(np.abs(gram))))
        resid = model.L @ block
        block *= w[c]
        resid += block
        resid **= 2
        residual = max(residual, float(np.max(model.mu @ resid)))
    return SpectralData(model.model_id, w, phi, float(np.sqrt(residual)), gram_error)


def canonical_basis(eigenvalues: np.ndarray, fields: np.ndarray,
                    mu: np.ndarray) -> np.ndarray:
    """mu-orthonormal ``fields`` rotated to a fixed basis in each eigenvalue cluster.

    For a cluster V with m columns, B = V^T diag(mu) P holds the L2(mu)
    projections of the first m probe fields P (drawn from ``PROBE_SEED``)
    onto its span; with B = QR and the diagonal of R made positive, V Q is
    the Gram-Schmidt basis of those projections.  It depends only on
    span(V): replacing V by V O for an orthogonal O leaves V Q unchanged.
    The rotation is made in place: ``fields`` itself is returned.
    """
    clusters = eigenvalue_clusters(eigenvalues)
    width = max((len(c) for c in clusters), default=0)
    # draw probe by probe, so probe j is the same whatever the widest cluster
    probes = np.random.default_rng(PROBE_SEED).standard_normal(
        (width, fields.shape[0])).T
    weighted = mu[:, None] * probes
    for cl in clusters:
        V = fields[:, cl]
        Q, R = np.linalg.qr(V.T @ weighted[:, :len(cl)])
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        fields[:, cl] = V @ (Q * signs)
    return fields


# ---------------------------------------------------------------------------
# semigroup application


def apply_semigroup(model: DiscretizedModel, f: ScalarField, t: float) -> ScalarField:
    """Exact heat flow P_t f = D^{-1/2} exp(-t A) D^{1/2} f on the symmetrized
    operator A.

    On a structure-marked model exp(-t A) is applied through the model's
    diagonalized blocks (``_blocks``, which self-test when first built), at
    a cost that does not grow with t ||A||: one 1-D factor per axis on a
    box or torus, one tridiagonal block per longitude frequency on the
    latitude sphere.

    Every other model is evaluated by a Chebyshev expansion (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81 (1984) 3967).  The Gershgorin bound b, the
    largest absolute row sum of A, holds the spectrum of A in [0, b], so
    that of X = I - (2/b) A lies in [-1, 1].  With a = t b / 2,
    exp(-t A) = exp(-a) exp(a X) = sum_k c_k T_k(X), c_0 = exp(-a) I_0(a)
    and c_k = 2 exp(-a) I_k(a) (``_bessel_weights``).  As |T_k| <= 1 on
    [-1, 1], cutting the series after degree K errs by at most the sum of
    the dropped c_k, relative to ||D^{1/2} f||_2; the series is cut where
    that sum falls below ``CHEB_TAIL``, at a degree of about
    sqrt(2 a ln(1 / CHEB_TAIL)) that is known before any product with A
    (Hochbruck & Lubich, SIAM J. Numer. Anal. 34 (1997) 1911).  The
    weights sum to 1 and X fixes D^{1/2} 1, so constants and total mass
    are preserved to roundoff.

    The blocks or the Chebyshev operator are built at the first t > 0 and
    kept in ``model.derived``; P_0 f is f.
    """
    if t < 0:
        raise ValueError("diffusion time must be nonnegative")
    fv = model.check_field(f)
    if t == 0:
        return model.field(fv)
    structured = _blocks(model)
    if structured is not None:
        blocks, dm = structured
        w = blocks.apply(fv / dm, lambda lam: np.exp(-t * lam))
    else:
        X, b, dm = _chebyshev_operator(model)
        w = _chebyshev(X, fv / dm, 0.5 * t * b)
    return model.field(w * dm)


def _bessel_weights(a: float, start: int | None = None) -> np.ndarray:
    """w_k = exp(-a) I_k(a) for k = 0..K, K the first index whose tail
    2 sum_{k > K} w_k is below ``CHEB_TAIL``.

    Miller's backward recurrence in ratio form: r_k = I_k / I_{k-1} from
    r_k = 1 / (2k / a + r_{k+1}), started at r_{start+1} = 0, cannot
    overflow.  By default it starts at 30 plus twice the a-priori degree
    sqrt(2 a ln(1 / CHEB_TAIL)), where the neglected I_k are far below
    roundoff.  The products of the ratios are normalized by
    exp(-a) (I_0 + 2 sum_k I_k) = 1, so the weights sum to 1 to roundoff.
    ``SolverError`` if even the weights up to ``start`` leave a larger tail.
    """
    if start is None:
        start = 30 + 2 * int(np.ceil(np.sqrt(2 * a * np.log(1.0 / CHEB_TAIL))))
    r = np.empty(start)
    x = 0.0
    for k in range(start, 0, -1):
        x = 1.0 / (2.0 * k / a + x)
        r[k - 1] = x
    p = np.cumprod(r)
    w0 = 1.0 / (1.0 + 2.0 * p.sum())
    w = np.concatenate([[w0], w0 * p])
    tail = 2.0 * np.cumsum(w[:0:-1])[::-1]          # tail[k] = 2 sum_{j > k} w_j
    cut = np.flatnonzero(tail < CHEB_TAIL)
    if cut.size == 0:
        raise SolverError(f"Bessel recurrence started at {start} leaves a tail "
                          f"{tail[-1]:g} at a = {a:g}, above {CHEB_TAIL:g}")
    return w[:cut[0] + 1]


def _chebyshev_operator(model: DiscretizedModel):
    """(X, b, dm) of an unmarked model, X = I - (2 / b) A with b the
    Gershgorin bound of the symmetrized A; built once per model and kept in
    ``model.derived`` like ``_blocks``, while A itself is not kept."""
    if "_chebyshev" not in model.derived:
        A, dm = _symmetrized(model)
        b = float(abs(A).sum(axis=1).max())
        X = (sp.identity(model.n_nodes, format="csr") - (2.0 / b) * A).tocsr()
        model.derived["_chebyshev"] = (X, b, dm)
    return model.derived["_chebyshev"]


def _chebyshev(X, v: np.ndarray, a: float) -> np.ndarray:
    """sum_k c_k T_k(X) v by the recurrence T_{k+1} = 2 X T_k - T_{k-1}."""
    w = _bessel_weights(a)
    out = w[0] * v
    prev, cur = v, X @ v                                         # T_0 v, T_1 v
    for k in range(1, w.size):
        if k > 1:
            nxt = X @ cur
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        out = daxpy(cur, out, a=2.0 * w[k])                       # out += c_k T_k v
    return out


class CrankNicolson:
    """Implicit trapezoidal stepper with Richardson step-doubling control.

    Each half-step solves (I - dt/2 A) w = (I + dt/2 A) w on the
    symmetrized operator by conjugate gradients; constants are preserved
    exactly and so is total mass.  The step count doubles from
    ``base_steps`` until two successive results differ by less than
    ``richardson_tol`` times max(1, sup of the finer one); if
    ``max_doublings`` run out first, ``SolverError`` is raised.  With
    ``max_doublings = 0`` it takes ``base_steps`` steps and tests nothing.
    No check runs it: it is a reference route for tests and benchmarks.
    """

    def __init__(self, model: DiscretizedModel, base_steps: int = 64,
                 richardson_tol: float = 1e-6, max_doublings: int = 4):
        self.model = model
        self.base_steps = base_steps
        self.richardson_tol = richardson_tol
        self.max_doublings = max_doublings
        self._A, self._dm = _symmetrized(model)

    def _run(self, w0: np.ndarray, t: float, steps: int) -> np.ndarray:
        dt = t / steps
        A = self._A
        op = spla.aslinearoperator(sp.eye(w0.size, format="csr") + (dt / 2) * A)
        w = w0
        for _ in range(steps):
            rhs = w - (dt / 2) * (A @ w)
            w, info = spla.cg(op, rhs, x0=w, rtol=1e-12, atol=1e-14)
            if info != 0:
                raise SolverError(f"conjugate gradients stalled (info={info})")
        return w

    def evolve(self, f: ScalarField, t: float) -> ScalarField:
        if t < 0:
            raise ValueError("diffusion time must be nonnegative")
        fv = self.model.check_field(f)
        if t == 0:
            return self.model.field(fv)
        w0 = fv / self._dm           # w = D^{1/2} f
        steps = self.base_steps
        w = self._run(w0, t, steps)
        for _ in range(self.max_doublings):
            steps *= 2
            w2 = self._run(w0, t, steps)
            diff, scale = np.max(np.abs(w2 - w)), max(1.0, np.max(np.abs(w2)))
            w = w2
            if diff < self.richardson_tol * scale:
                break
        else:
            if self.max_doublings:
                raise SolverError(f"step doubling did not converge: {steps} steps still "
                                  f"change the result by {diff / scale:g}, above "
                                  f"richardson_tol {self.richardson_tol:g}")
        return self.model.field(w * self._dm)


# ---------------------------------------------------------------------------
# heat kernel


def heat_kernel_block(spectral: SpectralData, t: float, rows, cols=None) -> np.ndarray:
    """Dense kernel block p(t, rows, cols) = (phi[rows] * w) @ phi[cols].T,
    w = exp(-lambda t), from the retained spectrum (``cols`` defaults to
    ``rows``).

    ``rows`` and ``cols`` index the nodes; ``slice(None)`` addresses all of
    them.  phi[rows] and phi[cols] are gathered once each (views for a
    slice, and one array when ``cols`` is None); beyond them and the block
    returned, only one run of weighted rows is allocated at a time, as the
    product is formed over runs of rows (``_runs``).  Against the 64
    columns of ``check_kernel_laws`` the block is bit-identical to the
    one-shot product.
    """
    phi = spectral.eigenfields
    w = np.exp(-spectral.eigenvalues * t)
    R = phi[rows]
    C = R if cols is None else phi[cols]
    out = np.empty((R.shape[0], C.shape[0]))
    for r in _runs(R.shape[0]):
        np.matmul(R[r] * w, C.T, out=out[r])
    return out


# ---------------------------------------------------------------------------
# eigenvalue clusters, equilibrium


def eigenvalue_clusters(eigenvalues: np.ndarray, rtol: float = 1e-6) -> list[np.ndarray]:
    """Group ascending eigenvalues that agree within 1e-9 + rtol max(1, lambda)."""
    lam = np.asarray(eigenvalues)
    clusters, start = [], 0
    for m in range(1, lam.size + 1):
        if m == lam.size or lam[m] - lam[start] > 1e-9 + rtol * max(1.0, lam[start]):
            clusters.append(np.arange(start, m))
            start = m
    return clusters


def equilibrium_error(model: DiscretizedModel, f: ScalarField, t: float) -> float:
    """L2(mu) distance of P_t f from its equilibrium (the mu-average of f)."""
    mean = model.integrate(f) / model.total_measure
    pt = apply_semigroup(model, f, t)
    diff = pt.values - mean
    return float(np.sqrt(model.mu @ diff**2))


def equilibrium_rate(model, f, t_grid) -> float:
    """Fitted slope of log ||P_t f - mean|| over the time grid."""
    errs = np.array([equilibrium_error(model, f, t) for t in t_grid])
    if np.any(errs <= 0):
        raise ValueError("equilibrium error vanished on the grid; nothing to fit")
    return float(np.polyfit(np.asarray(t_grid, float), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# Neumann restriction


def neumann_restrict(model: DiscretizedModel, node_subset) -> DiscretizedModel:
    """Reflecting restriction to a connected node subset.

    Keeps internal edges only, so the constant field stays in the kernel
    and the spectrum is the discrete Neumann spectrum of the subdomain.
    """
    subset = np.asarray(node_subset)
    if subset.dtype == bool:
        subset = np.flatnonzero(subset)
    subset = np.unique(subset)
    remap = -np.ones(model.n_nodes, dtype=np.int64)
    remap[subset] = np.arange(subset.size)

    ef = model.edge_form
    keep = (remap[ef.i] >= 0) & (remap[ef.j] >= 0)
    i, j = remap[ef.i[keep]], remap[ef.j[keep]]
    c = ef.c[keep]
    sub_ef = EdgeForm(i, j, c, subset.size)

    # every edge length is positive, so a node touches the cut exactly when
    # its row of lengths weighs a lost node
    lost = np.ones(model.n_nodes, dtype=bool)
    lost[subset] = False
    touches_cut = np.asarray((model.adjacency() @ lost.astype(float))[subset] > 0)
    boundary = model.boundary_mask[subset] | touches_cut

    sub = DiscretizedModel(
        model_id=f"{model.model_id}|sub{subset.size}",
        kind=model.kind,
        nodes=model.nodes[subset],
        mu=model.mu[subset],
        edge_form=sub_ef,
        edge_length=model.edge_length[keep],
        boundary_mask=boundary,
        meta={"h": model.meta["h"]},
    )
    # every check of a submodel solves its spectrum, so the connectivity
    # test assembles L; its pattern is symmetric, so its strong components
    # are the graph's
    ncomp, _ = connected_components(sub.L, connection="strong")
    if ncomp != 1:
        raise ValueError("restriction subset is disconnected")
    if "trusted_mask" in model.meta:
        sub.meta["trusted_mask"] = model.meta["trusted_mask"][subset]
    return sub


# ---------------------------------------------------------------------------
# spectral cache (flat binary, versioned header)


def save_spectral(path: str, spectral: SpectralData, model_hash: str) -> None:
    """Write the cache file: magic, header length, JSON header, then the
    eigenvalue and eigenfield blocks as raw float64.  The blocks are CRC'd
    and written from the arrays' own C-contiguous buffers, so no copy of
    them is made."""
    lam = memoryview(spectral.eigenvalues).cast("B")
    phi = memoryview(spectral.eigenfields).cast("B")
    header = json.dumps({
        "version": CACHE_VERSION,
        "checksum": zlib.crc32(phi, zlib.crc32(lam)),
        "model_id": spectral.model_id,
        "model_hash": model_hash,
        "k": spectral.count,
        "n": spectral.eigenfields.shape[0],
        "residual": spectral.residual,
        "gram_error": spectral.gram_error,
    }, sort_keys=True).encode()
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CACHE_MAGIC + struct.pack("<I", len(header)) + header)
        fh.write(lam)
        fh.write(phi)
    os.replace(tmp, path)


def load_spectral(path: str, model_hash: str) -> SpectralData | None:
    """Load a cached decomposition; None on any mismatch (then recompute).

    Files of another header version are a mismatch: version 1 files hold
    eigenfields in a solver-dependent basis.  So is a damaged file: one cut
    short, with bytes past its blocks, with a header that is not a JSON
    object, with blocks that fail the header's checksum, or with data that
    ``SpectralData`` rejects.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            if fh.read(len(CACHE_MAGIC)) != CACHE_MAGIC:
                return None
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
            if (not isinstance(header, dict)
                    or header.get("version") != CACHE_VERSION
                    or header.get("model_hash") != model_hash):
                return None
            k, n = header["k"], header["n"]
            blocks = fh.read(8 * k * (n + 1))
            if fh.read(1) or zlib.crc32(blocks) != header.get("checksum"):
                return None
        # both arrays are read-only views of the one block read
        data = np.frombuffer(blocks, dtype=float)
        return SpectralData(header["model_id"], data[:k], data[k:].reshape(n, k),
                            header["residual"], header["gram_error"])
    except (OSError, ValueError, KeyError, TypeError, struct.error, SolverError):
        return None


def cached_decompose(model: DiscretizedModel, k: int, path: str) -> SpectralData:
    """At least k eigenpairs from the cache file at ``path``; on a miss (see
    ``load_spectral``) or too few cached pairs, k are computed and saved."""
    mh = model_hash(model)
    cached = load_spectral(path, mh)
    if cached is None or cached.count < k:
        cached = spectral_decompose(model, k=k)
        save_spectral(path, cached, mh)
    return cached
