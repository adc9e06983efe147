"""One process of a benchmark run, started by ``run.py``.

    python3 bench/worker.py prepare  --workload W --work DIR
    python3 bench/worker.py campaign --workload W --seed N --work DIR
                                     --trace 0|1 --result FILE [--spans FILE]

``prepare`` is the set-up that ``setup_s`` times: interpreter start,
imports, reading the config and preparing the spectral cache (emptied, or
filled through ``ModelContext.spectral`` for campaign-warm).  ``campaign``
times ``cli.run_campaign`` into a fresh output directory, then checks the
outputs with ``audit`` and writes its result as JSON.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import audit  # noqa: E402
from heatlab import cli  # noqa: E402
from heatlab.metric import graph_distance  # noqa: E402
from heatlab.models import build_model  # noqa: E402

WORKLOADS = ("campaign-cold", "campaign-warm", "sphere-refine")
SPHERE_CFG = os.path.join(HERE, "sphere_refine.cfg")
SPHERE_RESOLUTIONS = (24, 32, 48)
SPHERE_LMAX = 3           # l = 4 strays 2.9% from l(l+1) at resolution 24


def load_config(workload, work):
    """The workload's campaign at the config's own seed, as users run it."""
    if workload == "sphere-refine":
        # parsed afresh on every call: CampaignConfig.from_dict pops
        # spectral_k out of the dict it is given
        cfg = cli.CampaignConfig.from_dict(cli.load_config_file(SPHERE_CFG))
    else:
        cfg = cli.default_config()
    cfg.workers = 1
    cfg.output_dir = os.path.join(work, "out")
    cfg.cache_dir = os.path.join(work, "cache")
    return cfg


def all_check_names():
    """Check names of every workload, in a fixed order (per-layer metrics)."""
    names = list(load_config("campaign-cold", "").checks)
    return names + [n for n in load_config("sphere-refine", "").checks
                    if n not in names]


def prepare(workload, work):
    cfg = load_config(workload, work)
    shutil.rmtree(cfg.cache_dir, ignore_errors=True)
    os.makedirs(cfg.cache_dir)
    if workload == "campaign-warm":
        for name, spec in cfg.models.items():
            k = cfg.spectral_k.get(name)
            if k:
                cli.ModelContext(name, spec, cfg.cache_dir, cfg.seed, k=k).spectral()


def audit_outputs(workload, seed, cfg, tracker):
    """Problems that the independent checks find, keyed by check name.

    ``seed`` picks the source nodes of the graph-distance audit.

    Runs only after a campaign that returned, so every report and cache
    file it reads exists.
    """
    problems = defaultdict(list)
    for name in cfg.checks:
        with open(os.path.join(cfg.output_dir, f"{name}.json")) as fh:
            rep = json.load(fh)
        problems[name] += audit.report_consistency(rep)
        if name == "subunit-oracle-heis":
            problems[name] += audit.subunit_lower_bound(rep["samples"])

    def cache(fname):
        return audit.read_cache(os.path.join(cfg.cache_dir, fname))

    if workload == "sphere-refine":
        errors = []
        for r in SPHERE_RESOLUTIONS:
            found, err = audit.sphere_cluster_error(cache(f"sphere{r}-k300.spec")[1],
                                                    SPHERE_LMAX)
            problems[f"spectrum-sphere{r}"] += found
            errors.append(err)
        problems[f"spectrum-sphere{SPHERE_RESOLUTIONS[-1]}"] += audit.errors_shrink(errors)
        return problems

    torus = cfg.models["torus1"]
    problems["spectrum-torus1"] += audit.torus_eigenvalues(
        cache(f"torus1-k{cfg.spectral_k['torus1']}.spec")[1], torus.resolution,
        float(torus.options.get("period", 2 * math.pi)))
    box = cfg.models["euclid2"]
    problems["kernel-bounds-euclid2"] += audit.neumann_box_eigenvalues(
        cache(f"euclid2-k{cfg.spectral_k['euclid2']}.spec")[1], box.resolution,
        box.extent)
    model = build_model(box)[0]
    rng = np.random.default_rng(seed)
    for src in rng.choice(model.n_nodes, size=3, replace=False):
        problems["distance-sandwich-euclid2"] += audit.l1_distances(
            graph_distance(model, int(src)).values, model.nodes, int(src))
    if workload == "campaign-warm":
        cached = {f: cache(f)[0]["model_id"] for f in os.listdir(cfg.cache_dir)
                  if f.endswith(".spec")}
        for check, found in audit.warm_cache(tracker.lookups, tracker.solves,
                                             cached).items():
            for name in ([check] if check else cfg.checks):
                problems[name] += found
    return problems


def machine_facts():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def campaign(workload, seed, work, trace, result_path, spans_path):
    import spans

    cfg = load_config(workload, work)
    if os.path.exists(cfg.output_dir):
        raise SystemExit(f"{cfg.output_dir} exists: reports would be reused")
    rec = spans.Recorder() if trace else None
    tracker = spans.CheckTracker(rec)
    tracker.install()
    if rec:
        spans.install_spans(rec)

    ok, raised = True, None
    t0 = time.perf_counter()
    try:
        cli.run_campaign(cfg, log=lambda line: print(line, file=sys.stderr))
    except Exception:
        traceback.print_exc()
        ok, raised = False, tracker.current
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": wall, "peak_rss_mb": rss_mb, "checks": list(cfg.checks),
              "facts": machine_facts()}
    if rec:
        result["layers"] = spans.layer_metrics(rec, wall, all_check_names())
        if spans_path:
            rec.dump(spans_path)
    failed = defaultdict(list)
    if ok:
        # wrong: an output that exists but that the audit rejects
        wrong = {k: v for k, v in audit_outputs(workload, seed, cfg, tracker).items() if v}
        for name in cfg.checks:
            with open(os.path.join(cfg.output_dir, f"{name}.json")) as fh:
                verdict = json.load(fh)["verdict"]
            if verdict != "pass":
                failed[name].append(f"verdict {verdict}")
    else:
        wrong = {}
        # the raising check and every check it kept from running
        names = list(cfg.checks)
        start = names.index(raised) if raised in names else 0
        for name in names[start:]:
            failed[name].append(f"not run: {raised or 'the campaign'} raised")
    for name, found in wrong.items():
        failed[name] += found
    result["wrong"] = sorted(wrong)
    result["failed"] = dict(failed)
    for name, found in result["failed"].items():
        print(f"FAILED {name}: {'; '.join(found)}", file=sys.stderr)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("phase", choices=("prepare", "campaign"))
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--work", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--result")
    p.add_argument("--spans")
    a = p.parse_args(argv)
    if a.phase == "campaign" and a.seed is None:
        p.error("campaign needs --seed")
    if a.phase == "prepare":
        prepare(a.workload, a.work)
    else:
        campaign(a.workload, a.seed, a.work, a.trace, a.result, a.spans)


if __name__ == "__main__":
    main()
