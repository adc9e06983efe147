"""Config-driven campaign runner.

Builds the model catalog, runs the selected checks, persists spectral
caches, and emits one JSON margin report per (model, check) plus a summary
table, CSV series, and static SVG plots.  Reports contain no timestamps or
environment data, so reruns at a fixed seed are byte-identical.

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
string fallback.  Exit codes: 0 all gated checks pass, 1 a check failed,
2 configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import checks as C
from .fields import CDParameters, check_operator_axioms, deep_interior
from .metric import graph_distance
from .models import ModelSpec, UnsupportedModelError, build_model, node_nearest
from .reports import MarginReport, Tolerance, atomic_write_text, write_csv
from .semigroup import CrankNicolson, cached_decompose, neumann_restrict
from . import suites as S

CONFIG_SCHEMA_VERSION = 1


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
    """Dotted key/value grammar -> nested dict."""
    root: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        node = root
        parts = key.strip().split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: {key.strip()!r} nests under a scalar")
        node[parts[-1]] = _parse_scalar(val.strip())
    return root


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    return parse_config_text(text)


@dataclass
class CampaignConfig:
    seed: int = 42
    output_dir: str = "campaign-out"
    cache_dir: str = "campaign-cache"
    tol_scale: float = 1.0
    workers: int = 1
    models: dict = field(default_factory=dict)   # name -> ModelSpec
    checks: dict = field(default_factory=dict)   # name -> spec dict
    spectral_k: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(d: dict) -> "CampaignConfig":
        cfg = default_config()
        if "seed" in d:
            cfg.seed = int(d["seed"])
        if "output_dir" in d:
            cfg.output_dir = str(d["output_dir"])
        if "cache_dir" in d:
            cfg.cache_dir = str(d["cache_dir"])
        if "tol_scale" in d:
            cfg.tol_scale = float(d["tol_scale"])
            if cfg.tol_scale <= 0:
                raise ConfigError("tol_scale: must be positive")
        if "workers" in d:
            cfg.workers = int(d["workers"])
            if cfg.workers < 1:
                raise ConfigError("workers: must be at least 1")
        if d.get("models"):
            cfg.models = {}
            cfg.spectral_k = {}
            for name, spec in d["models"].items():
                try:
                    spec = dict(spec)
                    k = spec.pop("spectral_k", None)
                    cfg.models[name] = ModelSpec.from_dict(spec)
                    if k is not None:
                        cfg.spectral_k[name] = int(k)
                except (KeyError, TypeError, ValueError, UnsupportedModelError) as exc:
                    raise ConfigError(f"models.{name}: {exc}") from exc
        if d.get("checks"):
            cfg.checks = {}
            for name, spec in d["checks"].items():
                cfg.checks[name] = dict(spec)
        validate_config(cfg)
        return cfg


def validate_config(cfg: CampaignConfig) -> None:
    for name, spec in cfg.checks.items():
        cid = spec.get("check")
        if cid not in CHECK_RUNNERS:
            raise ConfigError(
                f"checks.{name}.check: unknown check id {cid!r} "
                f"(known: {sorted(CHECK_RUNNERS)})"
            )
        model = spec.get("model")
        if model is not None and model not in cfg.models:
            raise ConfigError(f"checks.{name}.model: undefined model {model!r}")
        for key in ("tol_abs", "tol_rel"):
            if key in spec and float(spec[key]) < 0:
                raise ConfigError(f"checks.{name}.{key}: tolerance must be nonnegative")


def config_digest(cfg: CampaignConfig, name: str, spec: dict) -> str:
    payload = json.dumps(
        {"schema": CONFIG_SCHEMA_VERSION, "seed": cfg.seed,
         "tol_scale": cfg.tol_scale, "check": spec,
         "model": (cfg.models[spec["model"]].__dict__
                   if spec.get("model") in cfg.models else None)},
        sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# model contexts


class ModelContext:
    """Lazy bundle: model, oracle, vertical form, spectral data, stepper."""

    def __init__(self, name, spec: ModelSpec, cache_dir, seed, k=None):
        self.name = name
        self.spec = spec
        self.cache_dir = cache_dir
        self.seed = seed
        self.k = k
        self._built = None
        self._spectral = None
        self._stepper = None
        self._lock = threading.RLock()

    def _ensure(self):
        with self._lock:
            if self._built is None:
                self._built = build_model(self.spec)
        return self._built

    @property
    def model(self):
        return self._ensure()[0]

    @property
    def oracle(self):
        return self._ensure()[1]

    @property
    def vform(self):
        return self._ensure()[2]

    @property
    def stepper(self):
        if self._stepper is None:
            self._stepper = CrankNicolson(self.model, base_steps=32,
                                          richardson_tol=1e-6)
        return self._stepper

    def spectral(self, k=None):
        k = k or self.k or min(self.model.n_nodes, 128)
        with self._lock:
            if self._spectral is None or self._spectral.count < k:
                path = os.path.join(self.cache_dir, f"{self.name}-k{k}.spec")
                self._spectral = cached_decompose(self.model, k, path, seed=self.seed)
            return self._spectral

    @property
    def engine(self):
        """Best semigroup engine: spectral when retained, stepper otherwise."""
        if self.k:
            return self.spectral()
        return self.stepper


# ---------------------------------------------------------------------------
# check runners (bind config dicts to the check functions)


def _tol(spec, default_abs, default_rel, tol_scale, mesh_order=None):
    return Tolerance(
        abs=float(spec.get("tol_abs", default_abs)) * tol_scale,
        rel=float(spec.get("tol_rel", default_rel)) * tol_scale,
        mesh_order=spec.get("mesh_order", mesh_order),
    )


def _seed_for(cfg, name):
    return cfg.seed + (zlib.crc32(name.encode()) % 1000)


def _origin(model):
    return node_nearest(model, np.zeros(model.nodes.shape[1]))


def _cd_params(spec, default=None):
    if "params" not in spec:
        return default
    p = spec["params"]
    return CDParameters(float(p.get("rho1", 0.0)), float(p["rho2"]),
                        float(p.get("kappa", 0.0)), float(p["n"]))


def _suite_for(ctx, kind, seed):
    model = ctx.model
    if kind == "eigen":
        return S.eigen_fields(model, ctx.spectral(), seed=seed)
    if kind == "coordinate":
        return S.coordinate_fields(model)
    if kind == "positive":
        return S.positive_fields(model, ctx.spectral() if ctx.k else None, seed=seed)
    if kind == "sub-riemannian":
        return S.sub_riemannian_suite(model, engine=ctx.stepper, seed=seed)
    raise ConfigError(f"unknown suite kind {kind!r}")


def run_axioms(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    return check_operator_axioms(
        ctx.model, n_random=int(spec.get("n_random", 100)),
        seed=_seed_for(cfg, name),
        tolerance=_tol(spec, 1e-10, 0.0, cfg.tol_scale))


def run_kernel_laws(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    return C.check_kernel_laws(
        ctx.model, ctx.oracle, ctx.spectral(), engine2=ctx.stepper,
        cross_t=float(spec.get("cross_t", 0.1)), seed=_seed_for(cfg, name),
        tolerance=_tol(spec, 1e-8, 0.0, cfg.tol_scale),
        cross_tol=float(spec.get("cross_tol", 1e-4)))


def run_spectrum(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    return C.check_spectrum(ctx.model, ctx.oracle, ctx.spectral(),
                            count=int(spec.get("count", 5)),
                            rtol=float(spec.get("rtol", 0.02)) * cfg.tol_scale)


def run_cd(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    seed = _seed_for(cfg, name)
    mode = spec.get("mode", "riemannian")
    suite = _suite_for(ctx, spec.get("suite", "eigen" if mode == "riemannian"
                                     else "sub-riemannian"), seed)
    nu_grid = spec.get("nu_grid")
    if nu_grid is None:
        nu_grid = list(np.geomspace(0.25, 64, 10))
    defaults = {"riemannian": 0.02, "generalized": 0.10, "scan": 0.10}
    return C.check_cd(
        ctx.model, ctx.oracle, suite, vform=ctx.vform, params=_cd_params(spec),
        nu_grid=nu_grid, mode=mode,
        tolerance=_tol(spec, 1e-12, defaults[mode], cfg.tol_scale, 2),
        equality_fields=tuple(spec.get("equality_fields", ())))


def run_vertical_commutation(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    suite = [nf for nf in _suite_for(ctx, "sub-riemannian", _seed_for(cfg, name))
             if "noise" not in nf.name]
    return C.check_vertical_commutation(
        ctx.model, ctx.vform, suite,
        tolerance=_tol(spec, 1e-12, 0.08, cfg.tol_scale, 2))


def run_gradient_bound(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    seed = _seed_for(cfg, name)
    suite = _suite_for(ctx, spec.get("suite", "eigen"), seed)
    return C.check_gradient_bound(
        ctx.model, ctx.oracle, ctx.engine, suite,
        t_grid=spec.get("t_grid", [0.0, 0.1, 0.5, 1.0]),
        tolerance=_tol(spec, 1e-12, 0.02, cfg.tol_scale, 2))


def run_completeness(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    return C.check_completeness(ctx.model, ctx.engine,
                                t_grid=spec.get("t_grid", [0.1, 1.0]),
                                tolerance=_tol(spec, 1e-10, 0.0, cfg.tol_scale))


def run_spectral_gap(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    return C.check_spectral_gap(
        ctx.model, ctx.oracle, ctx.spectral(),
        n_random=int(spec.get("n_random", 100)), seed=_seed_for(cfg, name),
        tolerance=_tol(spec, 1e-12, 0.02, cfg.tol_scale, 2))


def run_log_sobolev(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    suite = _suite_for(ctx, "positive", _seed_for(cfg, name))
    return C.check_log_sobolev(
        ctx.model, ctx.oracle, ctx.engine, suite,
        t_grid=spec.get("t_grid", list(np.linspace(0.3, 1.5, 7))),
        tolerance=_tol(spec, 1e-12, 0.02, cfg.tol_scale, 2),
        slope_slack=float(spec.get("slope_slack", 0.05)))


def run_equilibrium(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    return C.check_equilibrium_rate(
        ctx.model, ctx.spectral(),
        t_grid=spec.get("t_grid", list(np.linspace(0.5, 2.0, 7))),
        rtol=float(spec.get("rtol", 0.03)) * cfg.tol_scale)


def run_li_yau(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    seed = _seed_for(cfg, name)
    mode = spec.get("mode", "rho0")
    model = ctx.model
    suite, saturation = [], ()
    if spec.get("suite") == "delta":
        suite = S.point_source_fields(model, _origin(model), width=0.25)
        suite += S.rectified_noise_fields(model, ctx.engine, n=2, seed=seed)
        saturation = ("point-source",) if spec.get("saturation", True) else ()
    elif spec.get("suite") == "sub-riemannian":
        suite = S.horizontal_bump_fields(model, widths=(0.5, 0.8))
        suite += S.rectified_noise_fields(model, ctx.stepper, n=1, seed=seed)
    else:
        suite = _suite_for(ctx, spec.get("suite", "positive"), seed)
    return C.check_li_yau(
        model, ctx.oracle, ctx.engine, suite,
        t_grid=spec.get("t_grid", [0.05, 0.1, 0.2]), mode=mode,
        alpha=spec.get("alpha"), vform=ctx.vform,
        params=_cd_params(spec, ctx.oracle.cd_params),
        tolerance=_tol(spec, 1e-12, 0.03, cfg.tol_scale, 2),
        saturation_fields=saturation,
        saturation_rtol=float(spec.get("saturation_rtol", 0.01)))


def run_harnack(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    seed = _seed_for(cfg, name)
    mode = spec.get("mode", "riemannian")
    model = ctx.model
    s_grid = spec.get("s_grid", [0.05, 0.1])
    gap_grid = spec.get("gap_grid", [0.05, 0.1])
    pairs = C.sample_harnack_pairs(model, int(spec.get("n_pairs", 200)),
                                   s_grid, gap_grid, seed=seed)
    if spec.get("suite") == "delta":
        suite = S.point_source_fields(model, _origin(model), width=0.3)
    elif mode == "sub-riemannian":
        suite = S.horizontal_bump_fields(model, widths=(0.5, 0.8))
    else:
        suite = S.bump_fields(model, seed=seed)
    return C.check_harnack(
        model, ctx.oracle, ctx.engine, suite, pairs, mode=mode,
        alpha=float(spec.get("alpha", 3.0)),
        dist_method=spec.get("distance", "auto"),
        tolerance=_tol(spec, 1e-12, 0.02, cfg.tol_scale, 2),
        kernel_spectral=ctx.spectral() if spec.get("kernel", False) else None)


def run_kernel_bounds(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    model = ctx.model
    rng = np.random.default_rng(_seed_for(cfg, name))
    radii = spec.get("radii", [0.3, 0.4, 0.5, 0.6])
    t_grid = spec.get("t_grid", [0.05, 0.1])
    safe = model.metric_distance_to_boundary()
    i0 = _origin(model)

    # reflection inflates p(x, x, t) by ~exp(-w^2/t) at wall distance w;
    # keep that under a fraction of a percent for the product/equality gates
    w_prod = 2.4 * float(max(radii))
    idx = np.flatnonzero(deep_interior(model, hops=3) & (safe > w_prod))
    centers = [i0] + [int(c) for c in
                      rng.choice(idx, size=min(int(spec.get("n_centers", 4)),
                                               idx.size), replace=False)] \
        if idx.size else [i0]

    w_pair = 2.4 * float(np.sqrt(max(t_grid)))
    pool = np.flatnonzero(deep_interior(model, hops=3) & (safe > w_pair))
    pair_sample = []
    for _ in range(int(spec.get("n_pairs", 8))):
        t = float(rng.choice(t_grid))
        a = int(rng.choice(pool))
        b = int(rng.choice(pool))
        dref = float(np.linalg.norm(model.nodes[a] - model.nodes[b]))
        if dref > 3.0 * np.sqrt(t):                      # keep the pair resolvable
            b = a
        pair_sample.append((a, b, t))
    return C.check_kernel_bounds(
        model, ctx.oracle, ctx.spectral(), engine=ctx.engine,
        t_grid=t_grid, pair_sample=pair_sample, centers=centers,
        radii=list(map(float, radii)), eps=float(spec.get("eps", 0.5)),
        tolerance=_tol(spec, 1e-12, 0.05, cfg.tol_scale, 2),
        equality_expected=bool(spec.get("equality_expected", False)),
        saturation_rtol=float(spec.get("saturation_rtol", 0.05)),
        ondiag_constancy_rtol=float(spec.get("ondiag_constancy_rtol", 0.05)))


def run_volume(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    model = ctx.model
    if spec.get("shell_radii"):
        h = float(model.meta["h"])
        radii = (np.asarray(spec["shell_radii"], dtype=float) + 0.49) * h
    else:
        radii = np.asarray(spec.get("radii", [0.3, 0.4, 0.5, 0.6]), dtype=float)
    if spec.get("centers") == "origin":
        centers = [_origin(model)]
    else:
        rng = np.random.default_rng(_seed_for(cfg, name))
        safe = model.metric_distance_to_boundary()
        h = float(model.meta.get("h", 0.0) or 0.0)
        idx = np.flatnonzero(safe > 2 * float(np.max(radii)) + 2 * h)
        centers = [_origin(model)]
        if idx.size:
            centers += rng.choice(idx, size=min(2, idx.size), replace=False).tolist()
        centers = [int(c) for c in centers]
    window = spec.get("ratio_window")
    return C.check_volume_regularity(
        model, ctx.oracle, centers, radii,
        dist_method=spec.get("distance", "auto"),
        ratio_window=tuple(window) if window else None,
        exponent_rtol=float(spec.get("exponent_rtol", 0.10)),
        monotone_upper=spec.get("monotone_upper"),
        tolerance=_tol(spec, 1e-12, float(spec.get("tol_rel", 0.05)), cfg.tol_scale))


def run_neumann(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    model = ctx.model
    domain = spec.get("domain", "box")
    if domain == "box":
        half = float(spec.get("half_width", 0.5))
        mask = np.all(np.abs(model.nodes) <= half, axis=1)
        sub = neumann_restrict(model, np.flatnonzero(mask))
        h = float(model.meta["h"])
        dim = model.nodes.shape[1]
        side = round(sub.n_nodes ** (1.0 / dim)) * h
        diam = side * np.sqrt(dim)
    elif domain == "cap":
        r = float(spec.get("radius", 0.8))
        pole = node_nearest(model, [0, 0, 1])
        d = graph_distance(model, pole).values
        sub = neumann_restrict(model, np.flatnonzero(d <= r))
        diam = 2 * r
    else:
        raise ConfigError(f"checks.{name}.domain: unknown domain {domain!r}")
    return C.check_neumann_poincare(
        sub, diameter=float(spec.get("diameter", diam)),
        constant=float(spec.get("constant", np.pi**2)),
        expected_product=spec.get("expected_product"),
        product_rtol=float(spec.get("product_rtol", 0.01)) * cfg.tol_scale,
        seed=_seed_for(cfg, name),
        tolerance=_tol(spec, 1e-12, 0.02, cfg.tol_scale, 2))


def run_ball_poincare(ctxs, spec, cfg, name):
    model = ctxs[spec["model"]].model
    return C.check_ball_poincare(model, _origin(model),
                                 float(spec.get("radius", 0.6)),
                                 seed=_seed_for(cfg, name))


def run_sobolev_embedding(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    model = ctx.model
    suite = S.bump_fields(model, centers=[_origin(model)],
                          width=float(spec.get("width", 0.25)))
    suite += S.bump_fields(model, seed=_seed_for(cfg, name),
                           width=float(spec.get("width", 0.25)))
    return C.check_sobolev_embedding(
        model, ctx.oracle, suite, tolerance=_tol(spec, 1e-12, 0.01, cfg.tol_scale))


def run_isoperimetric(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    model = ctx.model
    rng = np.random.default_rng(_seed_for(cfg, name))
    radii = np.asarray(spec.get("radii", [0.3, 0.4, 0.5, 0.6]), dtype=float)
    safe = model.metric_distance_to_boundary()
    h = float(model.meta.get("h", 0.0) or 0.0)
    idx = np.flatnonzero(safe > float(radii.max()) + 3 * h)
    centers = [_origin(model)]
    centers += [int(c) for c in rng.choice(idx, size=min(6, idx.size),
                                           replace=False)]
    expected = spec.get("expected_ratio")
    return C.check_isoperimetric_balls(
        model, ctx.oracle, centers, radii,
        expected_ratio=float(expected) if expected is not None else None,
        constancy_rtol=float(spec.get("constancy_rtol", 0.12)) * cfg.tol_scale,
        value_rtol=float(spec.get("value_rtol", 0.06)) * cfg.tol_scale,
        tolerance=_tol(spec, 1e-12, 0.0, cfg.tol_scale, 1))


def run_sobolev_sharp(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    model = ctx.model
    seed = _seed_for(cfg, name)
    suite = _suite_for(ctx, "positive", seed)
    p_list = tuple(float(p) for p in spec.get("p_list", (1.0, 2.0, 40.0)))
    pole = node_nearest(model, [0, 0, 1])
    extremal = S.latitude_profiles(model, pole, p=max(p_list),
                                   lams=tuple(spec.get("lams", (0.05, 0.1, 0.2))))
    return C.check_sobolev_sharp(
        model, ctx.oracle, suite, p_list=p_list, extremal_suite=extremal,
        extremal_rtol=float(spec.get("extremal_rtol", 0.05)) * cfg.tol_scale,
        tolerance=_tol(spec, 1e-12, 0.02, cfg.tol_scale, 2))


def run_diameter(ctxs, spec, cfg, name):
    ctx = ctxs[spec["model"]]
    return C.check_diameter(ctx.model, ctx.oracle, p=float(spec.get("p", 40.0)),
                            tolerance=_tol(spec, 1e-12, 0.0, cfg.tol_scale),
                            myers_rtol=float(spec.get("myers_rtol", 0.05)))


def run_distance_sandwich(ctxs, spec, cfg, name):
    from .metric import calibrate_anisotropy

    ctx = ctxs[spec["model"]]
    rep = C.check_distance_sandwich(
        ctx.model, ctx.oracle, n_pairs=int(spec.get("n_pairs", 50)),
        seed=_seed_for(cfg, name), budget=int(spec.get("budget", 30)))
    if ctx.oracle.exact_distance is not None:
        # report-only: lattice overestimation factor, never alters bounds
        rep.metadata["anisotropy"] = calibrate_anisotropy(
            ctx.model, ctx.oracle, n_pairs=100, seed=_seed_for(cfg, name))
    return rep


def run_subunit_oracle(ctxs, spec, cfg, name):
    return C.check_subunit_oracle(
        ctxs[spec["model"]].model,
        z_values=spec.get("z_values", (0.04, 0.09)),
        x_values=spec.get("x_values", (0.3,)),
        rtol=float(spec.get("rtol", 0.02)) * cfg.tol_scale,
        seed=_seed_for(cfg, name))


CHECK_RUNNERS = {
    "operator-axioms": run_axioms,
    "kernel-laws": run_kernel_laws,
    "spectrum": run_spectrum,
    "cd": run_cd,
    "vertical-commutation": run_vertical_commutation,
    "gradient-bound": run_gradient_bound,
    "completeness": run_completeness,
    "spectral-gap": run_spectral_gap,
    "log-sobolev": run_log_sobolev,
    "equilibrium-rate": run_equilibrium,
    "li-yau": run_li_yau,
    "harnack": run_harnack,
    "kernel-bounds": run_kernel_bounds,
    "volume-doubling": run_volume,
    "neumann-poincare": run_neumann,
    "ball-poincare": run_ball_poincare,
    "sobolev-embedding": run_sobolev_embedding,
    "isoperimetric": run_isoperimetric,
    "sobolev-sharp": run_sobolev_sharp,
    "diameter": run_diameter,
    "distance-sandwich": run_distance_sandwich,
    "subunit-oracle": run_subunit_oracle,
}


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
    cfg.spectral_k = {"torus1": 64, "euclid1": 96, "euclid2": 500,
                      "sphere": 300}
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
                             "domain": "box", "half_width": 0.5,
                             "expected_product": float(np.pi**2),
                             "product_rtol": 0.01},
        "neumann-square": {"check": "neumann-poincare", "model": "euclid2",
                           "domain": "box", "half_width": 0.5,
                           "expected_product": float(2 * np.pi**2)},
        "neumann-cap-sphere": {"check": "neumann-poincare", "model": "sphere",
                               "domain": "cap", "radius": 0.8, "constant": 1.0},
        "ball-poincare-heis": {"check": "ball-poincare", "model": "heis",
                               "radius": 0.6},
        "cd-sphere": {"check": "cd", "model": "sphere", "mode": "riemannian",
                      "suite": "eigen"},
        "cd-euclid2": {"check": "cd", "model": "euclid2", "mode": "riemannian",
                       "suite": "coordinate",
                       "equality_fields": ["half-square-norm"],
                       "tol_rel": 1e-9, "tol_abs": 1e-9},
        "cd-scan-heis": {"check": "cd", "model": "heis", "mode": "scan",
                         "params": {"rho2": 0.5, "kappa": 1.0, "n": 2.0}},
        "cd-generalized-heis": {"check": "cd", "model": "heis",
                                "mode": "generalized",
                                "params": {"rho1": 0.0, "rho2": 0.5,
                                           "kappa": 1.0, "n": 2.0},
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
                         "mode": "sub-riemannian", "alpha": 3.0,
                         "distance": "graph", "n_pairs": 60,
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
                        "distance": "graph", "centers": "origin",
                        "shell_radii": [5, 6, 7, 8, 9],
                        "ratio_window": [14.0, 18.0]},
        "spectral-gap-sphere": {"check": "spectral-gap", "model": "sphere"},
        "log-sobolev-sphere": {"check": "log-sobolev", "model": "sphere"},
        "equilibrium-sphere": {"check": "equilibrium-rate", "model": "sphere"},
        "gradient-bound-sphere": {"check": "gradient-bound", "model": "sphere",
                                  "t_grid": [0.0, 0.1, 0.5, 1.0]},
        "gradient-bound-euclid2": {"check": "gradient-bound", "model": "euclid2",
                                   "suite": "coordinate",
                                   "t_grid": [0.0, 0.05, 0.1]},
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
        "diameter-sphere": {"check": "diameter", "model": "sphere", "p": 40.0},
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


def run_campaign(cfg: CampaignConfig, only=None, log=print) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    os.makedirs(cfg.cache_dir, exist_ok=True)
    ctxs = {name: ModelContext(name, spec, cfg.cache_dir, cfg.seed,
                               k=cfg.spectral_k.get(name))
            for name, spec in cfg.models.items()}
    names = [n for n in cfg.checks if only is None or n in only]
    results: dict[str, MarginReport] = {}

    def task(name):
        spec = cfg.checks[name]
        digest = config_digest(cfg, name, spec)
        path = os.path.join(cfg.output_dir, f"{name}.json")
        if os.path.exists(path):
            try:
                prev = MarginReport.load(path)
                if prev.metadata.get("config_digest") == digest:
                    return name, prev, True
            except (ValueError, KeyError, json.JSONDecodeError):
                pass
        runner = CHECK_RUNNERS[spec["check"]]
        rep = runner(ctxs, spec, cfg, name)
        rep.metadata["config_digest"] = digest
        rep.save(path)
        return name, rep, False

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            done = list(pool.map(task, names))
    else:
        done = [task(n) for n in names]
    for name, rep, cached in done:          # deterministic reduction order
        results[name] = rep
        log(f"[{rep.verdict:4s}] {name:34s} min_margin={rep.min_margin:+.3e}"
            f"{' (cached)' if cached else ''}")

    summary_rows = [["check", "model", "verdict", "min_margin", "tol_abs",
                     "tol_rel", "scale"]]
    for name in names:
        r = results[name]
        summary_rows.append([name, r.model_id, r.verdict, repr(r.min_margin),
                             repr(r.tolerance.abs), repr(r.tolerance.rel),
                             repr(r.scale)])
    write_csv(os.path.join(cfg.output_dir, "summary.csv"), summary_rows)
    lines = [f"{row[0]:36s} {row[1]:28s} {row[2]}" for row in summary_rows[1:]]
    atomic_write_text(os.path.join(cfg.output_dir, "summary.txt"),
                      "\n".join(lines) + "\n")
    failed = [n for n in names if not results[n].passed]
    if failed:
        log(f"FAILED: {', '.join(failed)}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# plot emission


def _svg_polyline(points, width=480, height=320, margin=40):
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


def emit_plot_data(report: MarginReport, kind: str, out_dir: str) -> list[str]:
    """CSV series plus a minimal static SVG for one report."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{report.check_id}-{kind}")
    written = []
    if kind == "li-yau":
        series = report.metadata.get("series")
        if not series:
            raise ValueError("report carries no pointwise series")
        rows = [report.metadata.get("series_columns",
                                    ["t", "node", "lhs", "rhs", "margin"])]
        rows += [[repr(float(v)) if isinstance(v, float) else v for v in row]
                 for row in series]
        write_csv(base + ".csv", rows)
        pts = {}
        for t, node, lhs, rhs, margin in series:
            pts[t] = min(pts.get(t, np.inf), margin)
        svg = _svg_polyline(sorted(pts.items()))
        atomic_write_text(base + ".svg", svg)
        written = [base + ".csv", base + ".svg"]
    elif kind == "doubling":
        series = report.metadata.get("series")
        if not series:
            raise ValueError("report carries no (r, ratio) series")
        rows = [["r", "ratio", "monotone_r"]]
        prev = -np.inf
        for r, ratio in series:
            rows.append([repr(float(r)), repr(float(ratio)),
                         int(r >= prev)])
            prev = r
        write_csv(base + ".csv", rows)
        atomic_write_text(base + ".svg", _svg_polyline([(r, q) for r, q in series]))
        written = [base + ".csv", base + ".svg"]
    elif kind == "entropy":
        series = report.metadata.get("entropy_series")
        if not series:
            raise ValueError("report carries no entropy series")
        slope = report.metadata.get("entropy_slope")
        rows = [[f"# fitted_slope = {slope!r}"], ["t", "log_entropy"]]
        rows += [[repr(float(t)), repr(float(e))] for t, e in series]
        write_csv(base + ".csv", rows)
        atomic_write_text(base + ".svg", _svg_polyline(series))
        written = [base + ".csv", base + ".svg"]
    elif kind == "margins":
        rows = report.csv_rows()
        write_csv(base + ".csv", rows)
        pts = [(i, s.get("margin", 0.0)) for i, s in enumerate(report.samples)]
        atomic_write_text(base + ".svg", _svg_polyline(pts))
        written = [base + ".csv", base + ".svg"]
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    return written


# ---------------------------------------------------------------------------
# entry point


def _add_common(p):
    p.add_argument("--config", help="campaign config file (key/value or JSON)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--cache", help="spectral cache directory")
    p.add_argument("--tol-scale", type=float, dest="tol_scale")
    p.add_argument("--workers", type=int)


def _load_cfg(args) -> CampaignConfig:
    # command-line overrides go through the same validation as the file
    data = load_config_file(args.config) if args.config else {}
    for key, value in (("seed", args.seed), ("output_dir", args.out),
                       ("cache_dir", args.cache), ("tol_scale", args.tol_scale),
                       ("workers", args.workers)):
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
    p_build.add_argument("-k", type=int, help="eigenpairs to cache")

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
            rep = MarginReport.load(args.report)
            for path in emit_plot_data(rep, args.kind, args.out):
                print(path)
            return 0
        cfg = _load_cfg(args)
        if args.command == "build":
            if args.model not in cfg.models:
                raise ConfigError(f"--model: unknown model {args.model!r}")
            ctx = ModelContext(args.model, cfg.models[args.model],
                               cfg.cache_dir, cfg.seed,
                               k=args.k or cfg.spectral_k.get(args.model))
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
