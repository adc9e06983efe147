"""Named generators of test fields for the inequality checks.

Families: eigenfunction combinations, chart-coordinate polynomials, bump
functions, point sources, heat-evolved noise, and log-concave latitude
profiles used as near-extremal candidates for the sharp Sobolev family.
Checks that need positivity shift by a recorded epsilon and are rerun at
epsilon/10 to confirm stability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DiscretizedModel, ScalarField
from .semigroup import SpectralData, apply_semigroup


@dataclass(frozen=True)
class NamedField:
    name: str
    field: ScalarField


def eps_shift(model: DiscretizedModel, f: ScalarField):
    """f + eps with eps = 1e-3 sup|f|; returns (shifted field, eps)."""
    eps = 1e-3 * float(np.max(np.abs(f.values)) or 1.0)
    return model.field(f.values + eps), eps


def coordinate_fields(model: DiscretizedModel) -> list[NamedField]:
    out = []
    for d in range(model.nodes.shape[1]):
        out.append(NamedField(f"coord-{d}", model.field(model.nodes[:, d])))
    out.append(NamedField(
        "half-square-norm", model.field(0.5 * np.sum(model.nodes**2, axis=1))
    ))
    return out


def eigen_fields(model: DiscretizedModel, spectral: SpectralData,
                 n_single: int = 3, n_combo: int = 3,
                 seed: int = 0) -> list[NamedField]:
    """Eigenfields 1..n_single and random combinations of eigenfields 1..9."""
    rng = np.random.default_rng(seed)
    k_max = min(9, spectral.count - 1)
    out = []
    for k in range(1, min(n_single, k_max) + 1):
        out.append(NamedField(f"eigen-{k}", model.field(spectral.eigenfields[:, k])))
    for c in range(n_combo):
        coef = rng.standard_normal(k_max)
        v = spectral.eigenfields[:, 1:k_max + 1] @ coef
        out.append(NamedField(f"eigen-combo-{c}", model.field(v)))
    return out


def bump_fields(model: DiscretizedModel, centers=None, width: float | None = None,
                seed: int = 0) -> list[NamedField]:
    """Gaussian bumps in chart coordinates, snapped to nodes."""
    rng = np.random.default_rng(seed)
    nodes = model.nodes
    if centers is None:
        interior = np.flatnonzero(model.hop_distance_to_boundary() >= 3)
        if interior.size == 0:
            interior = np.arange(model.n_nodes)
        centers = rng.choice(interior, size=min(2, interior.size), replace=False)
    if width is None:
        span = nodes.max(axis=0) - nodes.min(axis=0)
        width = 0.15 * float(np.max(span))
    out = []
    for c in np.atleast_1d(centers):
        d2 = np.sum((nodes - nodes[int(c)]) ** 2, axis=1)
        out.append(NamedField(f"bump-{int(c)}", model.field(np.exp(-d2 / (2 * width**2)))))
    return out


def point_source_fields(model: DiscretizedModel, center: int,
                        width: float) -> list[NamedField]:
    """The unit point source at ``center`` and a Gaussian bump of ``width``
    centred there."""
    delta = np.zeros(model.n_nodes)
    delta[center] = 1.0 / model.mu[center]
    return ([NamedField("point-source", model.field(delta))]
            + bump_fields(model, centers=[center], width=width))


def evolved_noise_fields(model: DiscretizedModel, engine, n: int = 2,
                         eps_time: float | None = None, seed: int = 0) -> list[NamedField]:
    """White noise mollified by a short heat run (P_eps of noise)."""
    rng = np.random.default_rng(seed)
    if eps_time is None:
        eps_time = 4 * float(model.meta["h"])**2
    out = []
    for k in range(n):
        raw = model.field(rng.standard_normal(model.n_nodes))
        out.append(NamedField(f"evolved-noise-{k}",
                              apply_semigroup(model, engine, raw, eps_time)))
    return out


def rectified_noise_fields(model: DiscretizedModel, engine, n: int = 2,
                           seed: int = 0) -> list[NamedField]:
    """Nonnegative mollified noise (evolved noise minus its minimum)."""
    out = []
    for nf in evolved_noise_fields(model, engine, n=n, seed=seed):
        v = nf.field.values
        out.append(NamedField("rectified-" + nf.name, model.field(v - v.min())))
    return out


def positive_fields(model: DiscretizedModel, spectral: SpectralData | None,
                    seed: int = 0) -> list[NamedField]:
    """Strictly positive suite members 1 + a * (bounded field), a = 0.3, 0.6."""
    out = [NamedField("one", model.constant(1.0))]
    if spectral is not None and spectral.count > 1:
        for a in (0.3, 0.6):
            phi = spectral.eigenfields[:, 1]
            v = 1.0 + a * phi / np.max(np.abs(phi))
            out.append(NamedField(f"one-plus-{a:g}-eigen1", model.field(v)))
    for nf in bump_fields(model, seed=seed):
        out.append(NamedField("positive-" + nf.name,
                              model.field(0.2 + nf.field.values)))
    return out


def latitude_profiles(model: DiscretizedModel, pole_node: int,
                      p: float) -> list[NamedField]:
    """Near-extremal profiles (1 + lam * cos d)^(-2/(p-2)), lam = 0.05, 0.1,
    0.2, on the sphere.

    cos d is the latitude sine seen from the reference pole; the exponent is
    matched to the Lebesgue index p (its dimension solves p = 2n/(n-2)).
    For small lam these saturate the sharp Sobolev family at second order.
    """
    if p <= 2:
        raise ValueError("profiles are defined for p > 2")
    cosd = model.nodes @ model.nodes[pole_node]
    out = []
    for lam in (0.05, 0.1, 0.2):
        v = (1.0 + lam * cosd) ** (-2.0 / (p - 2.0))
        out.append(NamedField(f"latitude-profile-{lam:g}", model.field(v)))
    return out


def horizontal_bump_fields(model: DiscretizedModel, widths=(0.5,)) -> list[NamedField]:
    """Bumps about the vertical axis, constant in the vertical coordinate
    (smooth for the sub-Laplacian)."""
    nodes = model.nodes
    out = []
    for w in widths:
        d2 = nodes[:, 0] ** 2 + nodes[:, 1] ** 2
        out.append(NamedField(f"hbump-{w:g}", model.field(np.exp(-d2 / (2 * w**2)))))
    return out


def sub_riemannian_suite(model: DiscretizedModel, engine=None, seed: int = 0) -> list[NamedField]:
    """Polynomials and smooth bumps adapted to the group structure."""
    x, y, z = model.nodes[:, 0], model.nodes[:, 1], model.nodes[:, 2]
    out = coordinate_fields(model)
    out.append(NamedField("xz", model.field(x * z)))
    out.append(NamedField("x2y", model.field(x * x * y)))
    out += horizontal_bump_fields(model, widths=(0.5, 0.8))
    if engine is not None:
        h = float(model.meta["h"])
        for nf in evolved_noise_fields(model, engine, n=1, eps_time=16 * h**2,
                                       seed=seed):
            out.append(nf)
    return out
