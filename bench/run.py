"""heatlab campaign benchmark: one run of one workload.

    python3 bench/run.py --workload campaign-cold --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a source checkout; nothing needs installing.
Every piece of work runs in a fresh interpreter (``worker.py``) with the
BLAS thread count pinned, and everything it writes goes under
``bench/.work/``, which git ignores.

A run repeats rounds until the next one would end after ``--seconds``
(at least one round), then sets up on its own until it has timed
``SETUP_REPEATS`` set-ups.  A round is one set-up and one campaign; with
``--trace 1`` it is followed by a second set-up and a traced campaign on
the same seed, whose wall time minus the untraced one is the tracing
overhead.  Each metric is the median over the run's rounds or set-ups.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
One operation is one check of the campaign; it fails when it raises,
when its verdict is ``fail`` or when ``audit.py`` rejects its output.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign-cold", "campaign-warm", "sphere-refine")
SETUP_REPEATS = 3
# one BLAS thread: the 2-core reference machine gives steadier times with
# it, and a second BLAS thread would contend with the interpreter's own
BLAS_THREADS = "1"
RUN_LIMIT_S = 150          # no round may start that could end past this
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker(phase, args):
    """Run one worker process to its end and return its duration."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), phase, *args]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=child_env(), stdout=sys.stderr, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def commit():
    """Commit of the checkout, or "unknown" when it is no git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace, work):
    setup = []

    def prepare(d):
        setup.append(worker("prepare", ["--workload", workload, "--work", d]))

    rounds = []                # [untraced result, traced result?]
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        results = []
        for traced in ((0, 1) if trace else (0,)):
            d = os.path.join(work, f"round{len(rounds)}-{traced}")
            res = os.path.join(work, "result.json")
            prepare(d)
            args = ["--workload", workload, "--seed", str(seed), "--work", d,
                    "--trace", str(traced), "--result", res]
            if traced:
                args += ["--spans", os.path.join(HERE, ".work",
                                                 f"spans-{workload}-seed{seed}.json")]
            worker("campaign", args)
            with open(res) as fh:
                results.append(json.load(fh))
            shutil.rmtree(d)
        rounds.append(results)
        took = time.perf_counter() - t_round
        end = time.perf_counter() - t_start + took
        if end > seconds or end > RUN_LIMIT_S:
            break
    while len(setup) < SETUP_REPEATS:
        d = os.path.join(work, f"setup{len(setup)}")
        prepare(d)
        shutil.rmtree(d)

    print("machine:", json.dumps({"commit": commit(), **rounds[0][0]["facts"]}),
          file=sys.stderr)
    done = [r for rnd in rounds for r in rnd]
    attempted = sum(len(r["checks"]) for r in done)
    failed = sum(len(r["failed"]) for r in done)
    correct = not any(r["wrong"] for r in done)
    plain = [rnd[0] for rnd in rounds]
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        traced = [rnd[1]["layers"] for rnd in rounds]
        metrics = {k: {"value": statistics.median(t[k]["value"] for t in traced),
                       "unit": v["unit"]} for k, v in traced[0].items()}
        metrics["trace.untraced_wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.wall_s"]["value"] - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "heatlab", "cli.py")):
        print(f"no heatlab sources under {ROOT}/src: run from a full checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"{a.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(a.workload, a.seed, a.seconds, a.trace, work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
