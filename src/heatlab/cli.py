"""Config-driven campaign runner.

Builds the model catalog, runs the selected checks one after another on
one thread, persists spectral caches, and writes one JSON margin report per
(model, check) plus a summary table; each check logs its line as soon as it
finishes.  The checks run grouped by model, and each model is dropped after
its last check, so at most one model's build, caches, flow and spectrum is
alive at a time; the reports, the summaries and the ``FAILED:`` list keep
config order.  ``heatlab report`` turns a report into a CSV series and a
static SVG plot.  Reports contain no timestamps or environment data, so reruns at
a fixed seed are byte-identical.  Every run computes each report it
writes; the spectral cache (``cache_dir``) is the only state kept between
runs.

Each check id is declared once in ``CHECK_KINDS``: its check function and
the config keys it accepts with their types.  Defaults, default tolerances
and the model-context arguments it takes live in the check's signature.
The run's ``seed`` picks each check's sample design (suites, centres, node
pairs), which only the binding here draws; no check takes a seed.

Config grammar (also accepted as JSON with the same nesting):

    # comment lines start with '#'
    seed = 42
    output_dir = out
    models.sphere.kind = sphere
    models.sphere.resolution = 32
    checks.cd-sphere.check = cd
    checks.cd-sphere.model = sphere
    checks.cd-sphere.mode = riemannian

Dotted keys nest; values are parsed as JSON scalars/lists with a plain
string fallback.  An unknown key or model option, an ill-typed value or an
unknown choice is a configuration error that names the field; for an
unknown key it also lists the accepted ones.  ``seed`` must be
nonnegative; ``workers`` is accepted only as 1, so that older configs that
set it still parse.  Exit codes: 0 all gated checks pass, 1 a check
failed, 2 configuration or input error: a bad config, or a config or
report file that cannot be read or lacks what the command needs.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import checks as C
from .fields import NotApplicableError, deep_interior, interior_for_time
from .metric import distance_field
from .models import MODEL_OPTIONS, ModelSpec, build_model, node_nearest
from .reports import MarginReport, atomic_write_text, write_csv
from .semigroup import cached_decompose, neumann_restrict
from . import suites as S


class ConfigError(ValueError):
    """Invalid campaign configuration (message names the offending field)."""


# ---------------------------------------------------------------------------
# configuration


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_config_text(text: str) -> dict:
    """Dotted key/value grammar -> nested dict.

    Each key is given once: a repeated key, or a scalar for a key that
    already heads a table, is an error naming both lines.
    """
    root: dict = {}
    first: dict = {}            # dotted key -> the line that set or opened it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        node = root
        parts = key.split(".")
        for k, p in enumerate(parts[:-1], 1):
            node = node.setdefault(p, {})
            head = ".".join(parts[:k])
            if not isinstance(node, dict):
                raise ConfigError(f"{key}: line {lineno} nests under the scalar "
                                  f"{head} of line {first[head]}")
            first.setdefault(head, lineno)
        if key in first:
            what = "opens a table" if isinstance(node[parts[-1]], dict) else "sets it"
            raise ConfigError(f"{key}: line {lineno} sets it again; line {first[key]} {what}")
        first[key] = lineno
        node[parts[-1]] = _parse_scalar(val.strip())
    return root


def _unreadable(path, exc) -> ConfigError:
    """A one-line error naming a file that could not be read or parsed."""
    if isinstance(exc, OSError):
        reason = exc.strerror
    elif isinstance(exc, KeyError):
        reason = f"not a margin report (no {exc} entry)"
    else:
        reason = str(exc)
    return ConfigError(f"{path}: {reason}")


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            return json.loads(text)
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from None
    return parse_config_text(text)


# Value types: each converter returns the value a check receives, or raises
# ValueError saying what it expected.

def _int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _float(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _bounded(convert, ok, text):
    def checked(v):
        v = convert(v)
        if not ok(v):
            raise ValueError(f"must be {text}")
        return v
    return checked


_nonneg = _bounded(_float, lambda v: v >= 0, "nonnegative")
_count = _bounded(_int, lambda v: v >= 1, "at least 1")
_seed = _bounded(_int, lambda v: v >= 0, "nonnegative")
# campaigns run on one thread; the key is kept so that configs setting it parse
_one_worker = _bounded(_int, lambda v: v == 1, "1 (campaigns run on one thread)")


def _bool(v):
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _floats(v):
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError(f"expected a nonempty list of numbers, got {v!r}")
    return [_float(x) for x in v]


# at t = 0 the semigroup is the identity, so a sample there compares a value
# with itself (or, in li-yau, divides by t)
_times = _bounded(_floats, lambda v: all(t > 0 for t in v), "a list of positive times")
_radii = _bounded(_floats, lambda v: all(r > 0 for r in v), "a list of positive numbers")
# a shell index r stands for the radius (r + 0.49) h
_shell_radii = _bounded(_floats, lambda v: all(r >= 0 for r in v),
                        "a list of nonnegative numbers")


def _pair(v):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(f"expected a list of two numbers, got {v!r}")
    return _floats(v)


def _strs(v):
    if not isinstance(v, (list, tuple)) or not all(isinstance(x, str) for x in v):
        raise ValueError(f"expected a list of strings, got {v!r}")
    return list(v)


def _table(v):
    if not isinstance(v, dict):
        raise ValueError(f"expected a table of keys, got {v!r}")
    return dict(v)


def _choice(*options):
    def member(v):
        if v not in options:
            raise ValueError(f"expected one of {list(options)}, got {v!r}")
        return v
    return member


def _keyed(where, table, keys) -> dict:
    """Convert every entry of a config table; errors name ``where + key``."""
    table = _convert(where.rstrip(".") or "config", _table, table)
    out = {}
    for key, value in table.items():
        if key not in keys:
            raise ConfigError(f"{where}{key}: unknown key "
                              f"(accepted: {', '.join(keys)})")
        out[key] = _convert(where + key, keys[key], value)
    return out


def _convert(where, convert, value):
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


SETTINGS = {"seed": _seed, "output_dir": str, "cache_dir": str,
            "workers": _one_worker, "models": _table, "checks": _table}
MODEL_KEYS = {"kind": _choice(*MODEL_OPTIONS), "dim": _int, "resolution": _int,
              "extent": _float, "options": _table, "spectral_k": _count}


@dataclass
class CampaignConfig:
    seed: int = 42
    output_dir: str = "campaign-out"
    cache_dir: str = "campaign-cache"
    models: dict = field(default_factory=dict)   # name -> ModelSpec
    checks: dict = field(default_factory=dict)   # name -> spec dict
    spectral_k: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(d: dict) -> "CampaignConfig":
        cfg = default_config()
        values = _keyed("", d, SETTINGS)
        for key in ("seed", "output_dir", "cache_dir"):
            if key in values:
                setattr(cfg, key, values[key])
        if values.get("models"):
            cfg.models, cfg.spectral_k = {}, {}
            for name, spec in values["models"].items():
                spec = _keyed(f"models.{name}.", spec, MODEL_KEYS)
                if "kind" not in spec:
                    raise ConfigError(f"models.{name}.kind: missing")
                k = spec.pop("spectral_k", None)
                try:
                    cfg.models[name] = ModelSpec(**spec)
                except ValueError as exc:
                    raise ConfigError(f"models.{name}.{exc}") from None
                if k is not None:
                    cfg.spectral_k[name] = k
        if values.get("checks"):
            cfg.checks = {name: _convert(f"checks.{name}", _table, spec)
                          for name, spec in values["checks"].items()}
        validate_config(cfg)
        return cfg


def validate_config(cfg: CampaignConfig) -> None:
    """Check every check spec against the declaration of its kind."""
    for name, spec in cfg.checks.items():
        _check_options(cfg, name, spec)


def _check_options(cfg, name, spec) -> dict:
    """The converted keys of one check spec, without ``check`` and ``model``."""
    cid = spec.get("check")
    if cid not in CHECK_KINDS:
        raise ConfigError(f"checks.{name}.check: unknown check id {cid!r} "
                          f"(known: {sorted(CHECK_KINDS)})")
    if spec.get("model") not in cfg.models:
        raise ConfigError(f"checks.{name}.model: undefined model {spec.get('model')!r}")
    opts = _keyed(f"checks.{name}.", spec,
                  {"check": str, "model": str, **CHECK_KINDS[cid].keys})
    del opts["check"], opts["model"]
    if "radii" in opts and "shell_radii" in opts:
        raise ConfigError(f"checks.{name}: radii and shell_radii both set; "
                          "give one of them")
    return opts


# ---------------------------------------------------------------------------
# model contexts


class ModelContext:
    """Lazy bundle: model, oracle and spectral data.

    The checks evolve the model by its one exact flow (``apply_semigroup``),
    whose state the model keeps; ``spectral()`` holds the eigenpairs that
    the checks read as objects in their own right (eigenvalues, eigen
    suites, kernel blocks); both depend on the model alone.  ``seed`` is
    unused; it stays because ``bench/worker.py`` passes it.
    """

    def __init__(self, name, spec: ModelSpec, cache_dir, seed, k=None):
        self.name = name
        self.spec = spec
        self.cache_dir = cache_dir
        self.k = k

    @functools.cached_property
    def _built(self):
        return build_model(self.spec)

    @property
    def model(self):
        return self._built[0]

    @property
    def oracle(self):
        return self._built[1]

    @functools.cached_property
    def _spectral(self):
        k = self.k or min(self.model.n_nodes, 128)
        path = os.path.join(self.cache_dir, f"{self.name}-k{k}.spec")
        return cached_decompose(self.model, k, path)

    def spectral(self):
        return self._spectral


# ---------------------------------------------------------------------------
# check kinds: one declaration per check id binds config keys to a check


@dataclass(frozen=True)
class CheckKind:
    """How a check id binds its config to a check function.

    ``keys`` maps each accepted config key to its value type; a key is
    passed to the check under its own name unless ``bind(ctx, opts, seed)``
    pops it: ``bind`` draws from the check's own seed the sample design
    that no single key gives (suites, centers, pair samples).
    ``tol_abs``/``tol_rel`` replace the fields of the check's default
    tolerance.  The arguments ``model``, ``oracle`` and ``spectral`` come
    from the model context whenever the check's signature names them.
    """

    check: Callable
    keys: dict = field(default_factory=dict)
    bind: Callable | None = None


def _seed_for(cfg, name):
    return cfg.seed + (zlib.crc32(name.encode()) % 1000)


def _origin(model):
    return node_nearest(model, np.zeros(model.nodes.shape[1]))


def _centers(model, rng, mask, count):
    """The origin and up to ``count`` distinct nodes drawn from ``mask``."""
    idx = np.flatnonzero(mask)
    return [_origin(model)] + [int(c) for c in rng.choice(
        idx, size=min(count, idx.size), replace=False)]


def _reach(model, r, cells):
    """Nodes farther than ``r`` plus ``cells`` grid steps from the boundary."""
    h = float(model.meta["h"])
    return model.metric_distance_to_boundary() > r + cells * h


def sample_harnack_pairs(model, n_pairs, s_grid, gap_grid, seed=0):
    """(x, s, y, t) tuples with s < t, nodes drawn from a safe interior."""
    rng = np.random.default_rng(seed)
    tmax = max(s + g for s in s_grid for g in gap_grid)
    idx = np.flatnonzero(interior_for_time(model, tmax))
    if idx.size == 0:
        raise NotApplicableError("interior mask is empty; model too coarse")
    pairs = []
    for _ in range(n_pairs):
        x, y = rng.choice(idx, size=2, replace=True)
        s = float(rng.choice(np.asarray(s_grid, dtype=float)))
        t = s + float(rng.choice(np.asarray(gap_grid, dtype=float)))
        pairs.append((int(x), s, int(y), t))
    return pairs


def sample_node_pairs(model, n_pairs, seed=0):
    """``n_pairs`` (x, y) node pairs drawn uniformly, x == y allowed."""
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in rng.integers(0, model.n_nodes, size=2))
            for _ in range(n_pairs)]


_SUITES = {
    "eigen": lambda ctx, seed: S.eigen_fields(ctx.model, ctx.spectral(), seed=seed),
    "coordinate": lambda ctx, seed: S.coordinate_fields(ctx.model),
    "positive": lambda ctx, seed: S.positive_fields(ctx.model, ctx.spectral(), seed=seed),
    "sub-riemannian": lambda ctx, seed: S.sub_riemannian_suite(ctx.model, seed=seed),
}


def _bind_suite(default):
    return lambda ctx, opts, seed: {
        "suite": _SUITES[opts.pop("suite", default)](ctx, seed)}


def _bind_cd(ctx, opts, seed):
    mode = opts.get("mode", "riemannian")
    suite = opts.pop("suite", "eigen" if mode == "riemannian" else "sub-riemannian")
    return {"suite": _SUITES[suite](ctx, seed), "tolerance": C.CD_TOLERANCE[mode]}


def _bind_li_yau(ctx, opts, seed):
    model, kind = ctx.model, opts.pop("suite", "positive")
    if kind == "delta":
        suite = S.point_source_fields(model, _origin(model), width=0.25)
        suite += S.rectified_noise_fields(model, n=2, seed=seed)
        return {"suite": suite, "saturation_fields": ("point-source",)}
    if kind == "sub-riemannian":
        suite = S.horizontal_bump_fields(model, widths=(0.5, 0.8))
        return {"suite": suite + S.rectified_noise_fields(model, n=1, seed=seed)}
    return {"suite": _SUITES["positive"](ctx, seed)}


def _bind_harnack(ctx, opts, seed):
    model = ctx.model
    pairs = sample_harnack_pairs(model, opts.pop("n_pairs", 200),
                                 opts.pop("s_grid", [0.05, 0.1]),
                                 opts.pop("gap_grid", [0.05, 0.1]), seed=seed)
    if opts.pop("suite", None) == "delta":
        suite = S.point_source_fields(model, _origin(model), width=0.3)
    elif opts.get("mode") == "sub-riemannian":
        suite = S.horizontal_bump_fields(model, widths=(0.5, 0.8))
    else:
        suite = S.bump_fields(model, seed=seed)
    return {"suite": suite, "pair_sample": pairs}


def _bind_kernel_bounds(ctx, opts, seed):
    model = ctx.model
    rng = np.random.default_rng(seed)
    radii = opts.pop("radii", [0.3, 0.4, 0.5, 0.6])
    t_grid = opts.pop("t_grid", [0.05, 0.1])
    safe = model.metric_distance_to_boundary()
    interior = deep_interior(model, hops=3)
    # reflection inflates p(x, x, t) by ~exp(-w^2/t) at wall distance w;
    # keep that under a fraction of a percent for the product/equality gates
    centers = _centers(model, rng, interior & (safe > 2.4 * max(radii)), 4)
    pool = np.flatnonzero(interior & (safe > 2.4 * np.sqrt(max(t_grid))))
    if pool.size == 0:
        raise NotApplicableError(f"t_grid: no interior node lies 2.4 sqrt(t) from "
                                 f"the boundary at t = {max(t_grid):g}")
    pairs = []
    for _ in range(8):
        t = float(rng.choice(t_grid))
        a, b = int(rng.choice(pool)), int(rng.choice(pool))
        if np.linalg.norm(model.nodes[a] - model.nodes[b]) > 3.0 * np.sqrt(t):
            b = a                                  # keep the pair resolvable
        pairs.append((a, b, t))
    return {"radii": radii, "centers": centers, "pair_sample": pairs}


def _bind_volume(ctx, opts, seed):
    model = ctx.model
    radii = np.asarray(opts.pop("radii", [0.3, 0.4, 0.5, 0.6]))
    if "shell_radii" in opts:
        radii = (np.asarray(opts.pop("shell_radii")) + 0.49) * float(model.meta["h"])
    if opts.pop("centers", None) == "origin":
        return {"radii": radii, "centers": [_origin(model)]}
    return {"radii": radii, "centers": _centers(
        model, np.random.default_rng(seed), _reach(model, 2 * radii.max(), 2), 2)}


def _bind_neumann(ctx, opts, seed):
    model = ctx.model
    half, r = 0.5, 0.8            # box half-width, cap radius
    if opts.pop("domain", "box") == "box":
        sub = neumann_restrict(model, np.flatnonzero(
            np.all(np.abs(model.nodes) <= half, axis=1)))
        dim = model.nodes.shape[1]
        diameter = round(sub.n_nodes ** (1.0 / dim)) * float(model.meta["h"]) \
            * np.sqrt(dim)
    else:
        d = distance_field(model, None, node_nearest(model, [0, 0, 1])).values
        sub = neumann_restrict(model, np.flatnonzero(d <= r))
        diameter = 2 * r
    return {"submodel": sub, "diameter": float(diameter)}


def _bind_embedding(ctx, opts, seed):
    model = ctx.model
    return {"suite": S.bump_fields(model, centers=[_origin(model)], width=0.25)
            + S.bump_fields(model, seed=seed, width=0.25)}


def _bind_isoperimetric(ctx, opts, seed):
    model = ctx.model
    radii = np.asarray([0.3, 0.4, 0.5, 0.6])
    return {"radii": radii, "centers": _centers(
        model, np.random.default_rng(seed), _reach(model, radii.max(), 3), 6)}


def _bind_sandwich(ctx, opts, seed):
    return {"pair_sample": sample_node_pairs(ctx.model, opts.pop("n_pairs", 50), seed)}


def _bind_sobolev_sharp(ctx, opts, seed):
    suite = _SUITES["positive"](ctx, seed)
    pole = node_nearest(ctx.model, [0, 0, 1])
    return {"suite": suite, "extremal_suite": S.latitude_profiles(
        ctx.model, pole, p=max(C.SOBOLEV_P_LIST))}


_SUITE = _choice(*_SUITES)

CHECK_KINDS = {
    "operator-axioms": CheckKind(C.check_operator_axioms),
    "kernel-laws": CheckKind(C.check_kernel_laws),
    "spectrum": CheckKind(C.check_spectrum, {"count": _count, "rtol": _float}),
    "cd": CheckKind(C.check_cd, {"mode": _choice(*C.CD_TOLERANCE), "suite": _SUITE,
                                 "nu_grid": _floats, "equality_fields": _strs,
                                 "tol_abs": _nonneg, "tol_rel": _nonneg}, bind=_bind_cd),
    "vertical-commutation": CheckKind(C.check_vertical_commutation, bind=lambda ctx, opts, seed: {
        "suite": S.sub_riemannian_fields(ctx.model)}),
    "gradient-bound": CheckKind(C.check_gradient_bound, {"suite": _SUITE, "t_grid": _times},
                                bind=_bind_suite("eigen")),
    "completeness": CheckKind(C.check_completeness, {"t_grid": _times}),
    "spectral-gap": CheckKind(C.check_spectral_gap),
    "log-sobolev": CheckKind(C.check_log_sobolev, bind=_bind_suite("positive")),
    "equilibrium-rate": CheckKind(C.check_equilibrium_rate),
    "li-yau": CheckKind(C.check_li_yau, {"mode": _choice("rho0", "general-alpha", "exponential",
                                                         "bakry-qian", "sub-riemannian"),
                                         "suite": _choice("delta", "positive", "sub-riemannian"),
                                         "t_grid": _times,
                                         "alpha": _float}, bind=_bind_li_yau),
    "harnack": CheckKind(C.check_harnack, {"mode": _choice("riemannian", "sub-riemannian"),
                                           "suite": _choice("delta"), "n_pairs": _count,
                                           "s_grid": _times, "gap_grid": _times},
                         bind=_bind_harnack),
    "kernel-bounds": CheckKind(C.check_kernel_bounds, {"equality_expected": _bool,
                                                       "radii": _radii, "t_grid": _times},
                               bind=_bind_kernel_bounds),
    "volume-doubling": CheckKind(C.check_volume_regularity,
                                 {"radii": _radii, "shell_radii": _shell_radii,
                                  "centers": _choice("origin"), "ratio_window": _pair,
                                  "monotone_upper": _float, "tol_rel": _nonneg},
                                 bind=_bind_volume),
    "neumann-poincare": CheckKind(C.check_neumann_poincare, {
        "domain": _choice("box", "cap"), "constant": _float, "expected_product": _float},
        bind=_bind_neumann),
    "ball-poincare": CheckKind(C.check_ball_poincare, bind=lambda ctx, opts, seed: {
        "center": _origin(ctx.model)}),
    "sobolev-embedding": CheckKind(C.check_sobolev_embedding, bind=_bind_embedding),
    "isoperimetric": CheckKind(C.check_isoperimetric_balls, {"expected_ratio": _float},
                               bind=_bind_isoperimetric),
    "sobolev-sharp": CheckKind(C.check_sobolev_sharp, bind=_bind_sobolev_sharp),
    "diameter": CheckKind(C.check_diameter),
    "distance-sandwich": CheckKind(C.check_distance_sandwich, {"n_pairs": _count},
                                   bind=_bind_sandwich),
    "subunit-oracle": CheckKind(C.check_subunit_oracle),
}


def _run_check(kind: CheckKind, ctxs, spec, cfg, name):
    """Run one configured check: bind its keys to the check's arguments."""
    ctx = ctxs[spec["model"]]
    seed = _seed_for(cfg, name)
    opts = _check_options(cfg, name, spec)
    tol = {f: opts.pop(f"tol_{f}") for f in ("abs", "rel") if f"tol_{f}" in opts}
    params = inspect.signature(kind.check).parameters
    kwargs = {p: ctx.spectral() if p == "spectral" else getattr(ctx, p)
              for p in ("model", "oracle", "spectral") if p in params}
    if kind.bind is not None:
        kwargs.update(kind.bind(ctx, opts, seed))
    kwargs.update(opts)
    if tol:
        default = params["tolerance"].default
        kwargs["tolerance"] = dataclasses.replace(kwargs.get("tolerance", default), **tol)
    return kind.check(**kwargs)


# looked up on every run, so callers may wrap entries
CHECK_RUNNERS = {cid: functools.partial(_run_check, kind)
                 for cid, kind in CHECK_KINDS.items()}


# ---------------------------------------------------------------------------
# default campaign


def default_config() -> CampaignConfig:
    cfg = CampaignConfig()
    cfg.models = {
        "torus1": ModelSpec("torus", dim=1, resolution=64),
        "euclid1": ModelSpec("euclidean", dim=1, resolution=96, extent=1.5),
        "euclid2": ModelSpec("euclidean", dim=2, resolution=48, extent=1.5),
        "euclid3": ModelSpec("euclidean", dim=3, resolution=20, extent=1.0),
        "sphere": ModelSpec("sphere", dim=2, resolution=32),
        "heis": ModelSpec("heisenberg", dim=3, resolution=21, extent=1.25,
                          options={"z_extent": 0.15625}),
        "heis-hd": ModelSpec("heisenberg", dim=3, resolution=49, extent=1.3,
                             options={"z_extent": 0.16}),
    }
    cfg.spectral_k = {"torus1": 64, "euclid2": 500, "sphere": 300}
    cfg.checks = {}
    for m in ("torus1", "euclid1", "euclid2", "euclid3", "sphere", "heis"):
        cfg.checks[f"axioms-{m}"] = {"check": "operator-axioms", "model": m}
    cfg.checks.update({
        "kernel-laws-torus1": {"check": "kernel-laws", "model": "torus1"},
        "kernel-laws-sphere": {"check": "kernel-laws", "model": "sphere"},
        "spectrum-torus1": {"check": "spectrum", "model": "torus1",
                            "count": 5, "rtol": 0.01},
        "spectrum-sphere": {"check": "spectrum", "model": "sphere",
                            "count": 9, "rtol": 0.02},
        "neumann-interval": {"check": "neumann-poincare", "model": "euclid1",
                             "domain": "box",
                             "expected_product": float(np.pi**2)},
        "neumann-square": {"check": "neumann-poincare", "model": "euclid2",
                           "domain": "box",
                           "expected_product": float(2 * np.pi**2)},
        "neumann-cap-sphere": {"check": "neumann-poincare", "model": "sphere",
                               "domain": "cap", "constant": 1.0},
        "ball-poincare-heis": {"check": "ball-poincare", "model": "heis"},
        "cd-sphere": {"check": "cd", "model": "sphere", "mode": "riemannian",
                      "suite": "eigen"},
        "cd-euclid2": {"check": "cd", "model": "euclid2", "mode": "riemannian",
                       "suite": "coordinate",
                       "equality_fields": ["half-square-norm"],
                       "tol_rel": 1e-9, "tol_abs": 1e-9},
        "cd-scan-heis": {"check": "cd", "model": "heis", "mode": "scan"},
        "cd-generalized-heis": {"check": "cd", "model": "heis",
                                "mode": "generalized",
                                "nu_grid": [0.5, 1.0, 2.0, 8.0]},
        "vertical-commutation-heis": {"check": "vertical-commutation",
                                      "model": "heis"},
        "li-yau-euclid2": {"check": "li-yau", "model": "euclid2",
                           "mode": "rho0", "suite": "delta",
                           "t_grid": [0.05, 0.1, 0.2]},
        "li-yau-sphere-alpha1": {"check": "li-yau", "model": "sphere",
                                 "mode": "general-alpha", "alpha": 1.0,
                                 "t_grid": [0.25, 0.5, 1.0]},
        "bakry-qian-sphere": {"check": "li-yau", "model": "sphere",
                              "mode": "bakry-qian", "t_grid": [2.0, 3.0]},
        "li-yau-exponential-sphere": {"check": "li-yau", "model": "sphere",
                                      "mode": "exponential",
                                      "t_grid": [0.3, 0.6]},
        "li-yau-heis": {"check": "li-yau", "model": "heis",
                        "mode": "sub-riemannian", "alpha": 3.0,
                        "suite": "sub-riemannian",
                        "t_grid": [0.01, 0.02, 0.05]},
        "harnack-euclid2": {"check": "harnack", "model": "euclid2",
                            "suite": "delta", "n_pairs": 200},
        "harnack-sphere": {"check": "harnack", "model": "sphere",
                           "n_pairs": 200, "s_grid": [0.1, 0.2],
                           "gap_grid": [0.1, 0.3]},
        "harnack-heis": {"check": "harnack", "model": "heis",
                         "mode": "sub-riemannian", "n_pairs": 60,
                         "s_grid": [0.02, 0.04], "gap_grid": [0.02, 0.05]},
        "kernel-bounds-euclid2": {"check": "kernel-bounds", "model": "euclid2",
                                  "equality_expected": True,
                                  "radii": [0.3, 0.4, 0.5, 0.6]},
        "kernel-bounds-sphere": {"check": "kernel-bounds", "model": "sphere",
                                 "radii": [0.4, 0.6, 0.8],
                                 "t_grid": [0.1, 0.2]},
        "volume-euclid2": {"check": "volume-doubling", "model": "euclid2",
                           "radii": [0.3, 0.4, 0.5, 0.6],
                           "ratio_window": [3.7, 4.3]},
        "volume-sphere": {"check": "volume-doubling", "model": "sphere",
                          "radii": [0.35, 0.5, 0.7], "monotone_upper": 4.0,
                          "tol_rel": 0.06},
        "volume-heis": {"check": "volume-doubling", "model": "heis-hd",
                        "centers": "origin", "shell_radii": [5, 6, 7, 8, 9],
                        "ratio_window": [14.0, 18.0]},
        "spectral-gap-sphere": {"check": "spectral-gap", "model": "sphere"},
        "log-sobolev-sphere": {"check": "log-sobolev", "model": "sphere"},
        "equilibrium-sphere": {"check": "equilibrium-rate", "model": "sphere"},
        "gradient-bound-sphere": {"check": "gradient-bound", "model": "sphere",
                                  "t_grid": [0.1, 0.5, 1.0]},
        "gradient-bound-euclid2": {"check": "gradient-bound", "model": "euclid2",
                                   "suite": "coordinate",
                                   "t_grid": [0.05, 0.1]},
        "completeness-sphere": {"check": "completeness", "model": "sphere",
                                "t_grid": [1.0]},
        "completeness-torus1": {"check": "completeness", "model": "torus1",
                                "t_grid": [10.0]},
        "completeness-heis": {"check": "completeness", "model": "heis",
                              "t_grid": [0.2]},
        "sobolev-embedding-euclid3": {"check": "sobolev-embedding",
                                      "model": "euclid3"},
        "isoperimetric-euclid2": {"check": "isoperimetric", "model": "euclid2",
                                  "expected_ratio": float(1 / (2 * np.sqrt(np.pi)))},
        "sobolev-sharp-sphere": {"check": "sobolev-sharp", "model": "sphere"},
        "diameter-sphere": {"check": "diameter", "model": "sphere"},
        "distance-sandwich-torus1": {"check": "distance-sandwich",
                                     "model": "torus1"},
        "distance-sandwich-euclid2": {"check": "distance-sandwich",
                                      "model": "euclid2"},
        "distance-sandwich-sphere": {"check": "distance-sandwich",
                                     "model": "sphere"},
        "distance-sandwich-heis": {"check": "distance-sandwich",
                                   "model": "heis", "n_pairs": 25},
        "subunit-oracle-heis": {"check": "subunit-oracle", "model": "heis"},
    })
    return cfg


# ---------------------------------------------------------------------------
# campaign runner


def _check_spectral_k(ctx: ModelContext, where: str) -> None:
    if ctx.k and ctx.k > ctx.model.n_nodes:
        raise ConfigError(f"{where}: must be at most the {ctx.model.n_nodes} "
                          f"nodes of model {ctx.name!r}, got {ctx.k}")


def run_campaign(cfg: CampaignConfig, only=None, log=print) -> int:
    """Run the checks (all, or those named in ``only``) and write their
    reports; a full run also writes ``summary.csv`` and ``summary.txt``.
    A check found not applicable stops the run with a ``ConfigError``.

    The checks run grouped by model, the models in the order in which
    they first appear among the checks, and each model's context (build,
    caches, flow, spectrum) is dropped after its last check, so one model
    is alive at a time; a model that ``_check_spectral_k`` builds up front
    waits for its own group.  Each check logs its line when it finishes,
    in run order; the reports, the summaries and the ``FAILED:`` list keep
    config order."""
    validate_config(cfg)          # before any report is written
    names = [n for n in cfg.checks if only is None or n in only]
    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(cfg.checks[name]["model"], []).append(name)
    ctxs = {name: ModelContext(name, cfg.models[name], cfg.cache_dir, cfg.seed,
                               k=cfg.spectral_k.get(name))
            for name in groups}
    for name, ctx in ctxs.items():
        _check_spectral_k(ctx, f"models.{name}.spectral_k")
    os.makedirs(cfg.output_dir, exist_ok=True)
    os.makedirs(cfg.cache_dir, exist_ok=True)
    results: dict[str, MarginReport] = {}
    for model_name, group in groups.items():
        one = {model_name: ctxs.pop(model_name)}
        for name in group:
            spec = cfg.checks[name]
            try:
                rep = CHECK_RUNNERS[spec["check"]](one, spec, cfg, name)
            except NotApplicableError as exc:
                raise ConfigError(f"checks.{name}: {exc}") from None
            rep.save(os.path.join(cfg.output_dir, f"{name}.json"))
            results[name] = rep
            log(f"[{rep.verdict:4s}] {name:34s} min_margin={rep.min_margin:+.3e}")
        del one           # the model goes before the next group builds its own
    if only is None:    # a partial run leaves the summaries of the full one
        rows = [["check", "model", "verdict", "min_margin", "tol_abs", "tol_rel",
                 "scale"]]
        for name in names:
            r = results[name]
            rows.append([name, r.model_id, r.verdict, repr(r.min_margin),
                         repr(r.tolerance.abs), repr(r.tolerance.rel), repr(r.scale)])
        write_csv(os.path.join(cfg.output_dir, "summary.csv"), rows)
        lines = [f"{row[0]:36s} {row[1]:28s} {row[2]}" for row in rows[1:]]
        atomic_write_text(os.path.join(cfg.output_dir, "summary.txt"),
                          "\n".join(lines) + "\n")
    failed = [n for n in names if not results[n].passed]
    if failed:
        log(f"FAILED: {', '.join(failed)}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# plot emission


def _svg_polyline(points):
    width, height, margin = 480, 320, 40          # pixels
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    sx = (width - 2 * margin) / max(x1 - x0, 1e-12)
    sy = (height - 2 * margin) / max(y1 - y0, 1e-12)
    pts = " ".join(f"{margin + (x - x0) * sx:.2f},{height - margin - (y - y0) * sy:.2f}"
                   for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="#205080" stroke-width="1.5"/>'
        f'<text x="{margin}" y="{height - 8}" font-size="11">x: [{x0:.6g}, {x1:.6g}]</text>'
        f'<text x="{margin}" y="16" font-size="11">y: [{y0:.6g}, {y1:.6g}]</text>'
        "</svg>"
    )


# the columns each plot kind reads, by name, and its name in errors
_PLOT_COLUMNS = {"li-yau": (["t", "node", "lhs", "rhs", "margin"], "pointwise"),
                 "doubling": (["r", "ratio"], "(r, ratio)")}


def _plot_rows(report: MarginReport, columns):
    """The rows of ``columns``: from the metadata ``series``, whose columns
    ``series_columns`` names, when the report has one, else from the
    samples; a record that lacks one of the columns is skipped."""
    meta = report.metadata
    records = ([dict(zip(meta.get("series_columns", columns), row))
                for row in meta["series"]] if "series" in meta else report.samples)
    return [[rec[c] for c in columns] for rec in records
            if all(c in rec for c in columns)]


def _plot_series(report: MarginReport, kind: str):
    """(CSV rows, SVG points) of a plot; ValueError if the report lacks them."""
    if kind == "margins":
        return (report.csv_rows(),
                [(i, s.get("margin", 0.0)) for i, s in enumerate(report.samples)])
    if kind == "entropy":
        series = report.metadata.get("entropy_series")
        if not series:
            raise ValueError("report carries no entropy series")
        slope = report.metadata.get("entropy_slope")
        rows = [[f"# fitted_slope = {slope!r}"], ["t", "log_entropy"]]
        return rows + [[repr(float(t)), repr(float(e))] for t, e in series], series
    if kind not in _PLOT_COLUMNS:
        raise ValueError(f"unknown plot kind {kind!r}")
    columns, what = _PLOT_COLUMNS[kind]
    series = _plot_rows(report, columns)
    if not series:
        raise ValueError(f"report carries no {what} series")
    if kind == "li-yau":
        rows = [columns] + [[repr(float(v)) if isinstance(v, float) else v for v in row]
                            for row in series]
        pts = {}
        for t, node, lhs, rhs, margin in series:
            pts[t] = min(pts.get(t, np.inf), margin)
        return rows, sorted(pts.items())
    rows = [["r", "ratio", "monotone_r"]]
    prev = -np.inf
    for r, ratio in series:
        rows.append([repr(float(r)), repr(float(ratio)), int(r >= prev)])
        prev = r
    return rows, series


def emit_plot_data(report: MarginReport, kind: str, out_dir: str, name: str) -> list[str]:
    """CSV series plus a minimal static SVG for one report, written to
    ``{name}-{kind}.csv`` and ``.svg``; ``name`` is the check's config name
    (a campaign saves its report as ``{name}.json``), since several checks
    share one check kind.  A report that lacks the series raises ValueError
    before anything is written."""
    rows, points = _plot_series(report, kind)
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{name}-{kind}")
    write_csv(base + ".csv", rows)
    atomic_write_text(base + ".svg", _svg_polyline(points))
    return [base + ".csv", base + ".svg"]


# ---------------------------------------------------------------------------
# entry point


def _add_common(p):
    p.add_argument("--config", help="campaign config file (key/value or JSON)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--cache", help="spectral cache directory")


def _load_cfg(args) -> CampaignConfig:
    # command-line overrides go through the same validation as the file
    data = load_config_file(args.config) if args.config else {}
    for key, value in (("seed", args.seed), ("output_dir", args.out),
                       ("cache_dir", args.cache)):
        if value is not None:
            data[key] = value
    return CampaignConfig.from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="margin checks for heat-semigroup geometry on model spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a model and its spectral cache")
    _add_common(p_build)
    p_build.add_argument("--model", required=True)

    p_check = sub.add_parser("check", help="run one named check")
    _add_common(p_check)
    p_check.add_argument("--check", required=True, help="check name from the config")

    p_camp = sub.add_parser("campaign", help="run the full campaign")
    _add_common(p_camp)

    p_rep = sub.add_parser("report", help="re-emit plot data from a report")
    p_rep.add_argument("--report", required=True, help="path to a report JSON")
    p_rep.add_argument("--kind", required=True,
                       choices=["li-yau", "doubling", "entropy", "margins"])
    p_rep.add_argument("--out", default="plots")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            where = f"--report {args.report}"
            try:
                rep = MarginReport.load(args.report)
            except (OSError, ValueError, KeyError) as exc:
                raise _unreadable(where, exc) from None
            name = os.path.splitext(os.path.basename(args.report))[0]
            try:
                written = emit_plot_data(rep, args.kind, args.out, name)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            for path in written:
                print(path)
            return 0
        cfg = _load_cfg(args)
        if args.command == "build":
            if args.model not in cfg.models:
                raise ConfigError(f"--model: unknown model {args.model!r}")
            ctx = ModelContext(args.model, cfg.models[args.model], cfg.cache_dir,
                               cfg.seed, k=cfg.spectral_k.get(args.model))
            _check_spectral_k(ctx, f"models.{args.model}.spectral_k")
            m = ctx.model
            print(f"{m.model_id}: {m.n_nodes} nodes, "
                  f"{m.edge_form.n_edges} edges, mu(M)={m.total_measure:.6g}")
            if ctx.k:
                sd = ctx.spectral()
                print(f"cached {sd.count} eigenpairs, residual {sd.residual:.2e}")
            return 0
        if args.command == "check":
            if args.check not in cfg.checks:
                raise ConfigError(f"--check: unknown check {args.check!r}")
            return run_campaign(cfg, only={args.check})
        return run_campaign(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
