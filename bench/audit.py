"""Correctness checks of campaign outputs, computed apart from heatlab.

Each check takes plain arrays or report dicts and returns a list of
problems (empty when the output is right), so a test can feed it a
deliberately perturbed input.  Reference values are closed forms, never
a stored copy of earlier reports.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

CACHE_MAGIC = b"HLSPEC01"


def read_cache(path):
    """(header, eigenvalues) of a spectral cache file, parsed without heatlab."""
    with open(path, "rb") as fh:
        if fh.read(len(CACHE_MAGIC)) != CACHE_MAGIC:
            raise ValueError(f"{path}: not a spectral cache file")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen))
        lam = np.frombuffer(fh.read(8 * header["k"]), dtype="<f8")
    if lam.size != header["k"]:
        raise ValueError(f"{path}: truncated eigenvalue block")
    return header, lam


def _compare(label, lam, ref, rtol):
    lam = np.asarray(lam, dtype=float)
    if lam.shape != ref.shape:
        return [f"{label}: {lam.size} eigenvalues, expected {ref.size}"]
    tol = rtol * max(1.0, float(ref.max()))
    err = np.abs(lam - ref)
    j = int(np.argmax(err))
    if not err[j] <= tol:
        return [f"{label}: eigenvalue {j} is {lam[j]!r}, closed form {ref[j]!r} "
                f"(|diff| {err[j]:.3g} > {tol:.3g})"]
    return []


def torus_eigenvalues(lam, m, period, rtol=1e-9):
    """Periodic second difference on m nodes: (4/h^2) sin^2(pi j/m), h = period/m."""
    h = period / m
    ref = np.sort(4 / h**2 * np.sin(np.pi * np.arange(m) / m) ** 2)[: len(lam)]
    return _compare("torus eigenvalues", lam, ref, rtol)


def neumann_box_eigenvalues(lam, m, extent, rtol=1e-9):
    """Cell-centred m x m Neumann grid on [-extent, extent]^2:
    (4/h^2) (sin^2(pi a/2m) + sin^2(pi b/2m)), h = 2 extent/m."""
    h = 2 * extent / m
    s = np.sin(np.pi * np.arange(m) / (2 * m)) ** 2
    ref = np.sort((4 / h**2 * (s[:, None] + s[None, :])).ravel())[: len(lam)]
    return _compare("neumann box eigenvalues", lam, ref, rtol)


def sphere_cluster_error(lam, lmax, rtol=0.02):
    """(problems, worst relative error) of the lowest eigenvalue clusters.

    The sorted eigenvalues with index l^2 .. (l+1)^2 - 1 must lie within
    ``rtol`` of l(l+1) for l = 0..lmax, and the next eigenvalue must not,
    so each cluster has multiplicity 2l + 1.
    """
    lam = np.asarray(lam, dtype=float)
    need = (lmax + 1) ** 2 + 1
    if lam.size < need:
        return [f"sphere: {lam.size} eigenvalues, need {need}"], math.inf
    problems = []
    if abs(lam[0]) > 1e-8:
        problems.append(f"sphere: lowest eigenvalue {lam[0]!r} is not 0")
    worst = 0.0
    for l in range(1, lmax + 1):
        ref = l * (l + 1)
        block = lam[l * l:(l + 1) ** 2]
        err = float(np.max(np.abs(block / ref - 1)))
        worst = max(worst, err)
        if not err <= rtol:
            problems.append(f"sphere: cluster l={l} strays {err:.3%} from {ref}")
    nxt = lam[(lmax + 1) ** 2]
    if abs(nxt / (lmax * (lmax + 1)) - 1) <= rtol:
        problems.append(f"sphere: cluster l={lmax} has more than {2 * lmax + 1} members")
    return problems, worst


def errors_shrink(errors):
    """Problems unless each error is smaller than the one before it."""
    return [f"refinement: cluster error {b:.3g} does not improve on {a:.3g}"
            for a, b in zip(errors, errors[1:]) if not b < a]


def l1_distances(dist, nodes, source, atol=1e-9):
    """Graph distance on an axis grid must equal the L1 chart distance."""
    ref = np.sum(np.abs(np.asarray(nodes) - np.asarray(nodes)[source]), axis=1)
    err = np.abs(np.asarray(dist) - ref)
    j = int(np.argmax(err))
    if not err[j] <= atol:
        return [f"graph distance from {source} to {j} is {dist[j]!r}, L1 {ref[j]!r}"]
    return []


def subunit_lower_bound(samples, rtol=1e-12):
    """Shooting returns an upper bound, so a vertical target (0, 0, z) needs
    length >= 2 sqrt(pi |z|), the exact Carnot-Caratheodory distance."""
    problems = []
    for s in samples:
        if "z" not in s:
            continue
        ref = 2 * math.sqrt(math.pi * abs(s["z"]))
        if not s["lhs"] >= ref * (1 - rtol):
            problems.append(f"subunit length {s['lhs']!r} for z={s['z']} "
                            f"is below 2 sqrt(pi |z|) = {ref!r}")
    return problems


def report_consistency(rep):
    """The verdict must follow from min_margin and the tolerance, and
    min_margin must be no larger than any sample margin."""
    tol = rep["tolerance"]
    mm = rep["min_margin"]
    problems = []
    slack = tol["abs"] + tol["rel"] * abs(rep["scale"])
    expect = "pass" if mm >= -slack else "fail"
    if rep["verdict"] != expect:
        problems.append(f"verdict {rep['verdict']} but min_margin {mm!r} "
                        f"against slack {slack!r} gives {expect}")
    margins = [s["margin"] for s in rep["samples"] if "margin" in s]
    if any(m != m for m in margins + [mm]):
        problems.append("a margin is NaN")
    elif margins and not mm <= min(margins):
        problems.append(f"min_margin {mm!r} exceeds sample margin {min(margins)!r}")
    return problems


def warm_cache(lookups, solves, cached_ids):
    """Problems, keyed by check, that show a warm run recomputed a spectrum.

    ``lookups`` are (check, cache file, hit) of every cache read,
    ``solves`` are (check, model_id, n, k) of every eigensolve, and
    ``cached_ids`` maps each cache file to the ``model_id`` in its header.
    Every read must hit, and no eigensolve may run on a model whose
    spectrum is cached.
    """
    problems = {}
    for check, fname, hit in lookups:
        if not hit:
            problems.setdefault(check, []).append(f"cache miss on {fname}")
    cached = set(cached_ids.values())
    for check, model_id, n, k in solves:
        if model_id in cached:
            problems.setdefault(check, []).append(
                f"eigensolve on cached model {model_id} (N={n}, k={k})")
    if not lookups:
        problems.setdefault(None, []).append("the campaign read no spectral cache")
    return problems
