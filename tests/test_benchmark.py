"""The benchmark's own code and the microbenchmarks run against the library
(about 9 s).

``bench/`` calls library names (``apply_semigroup``, ``spectral_decompose``
with k second, ``ModelContext``, ``metric.optimize`` and others), and the
microbenchmarks ``tests/bench_*.py`` import others; a change to one of them
shows up here, not only in a benchmark run.
"""
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
MICROBENCHMARKS = sorted(glob.glob(os.path.join(ROOT, "tests", "bench_*.py")))


def test_microbenchmarks_collect():
    # the default run collects only test_*.py, so a moved or renamed library
    # name would break these files unseen
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", *MICROBENCHMARKS],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert sum("::" in line for line in run.stdout.splitlines()) == 29, run.stdout


def test_one_traced_warm_round_reports_every_declared_layer():
    spans = os.path.join(BENCH, ".work", "spans-campaign-warm-seed1.json")
    try:
        run = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                              "--workload", "campaign-warm", "--seed", "1",
                              "--seconds", "0", "--trace", "1"],
                             capture_output=True, text=True, timeout=300)
    finally:
        if os.path.exists(spans):
            os.remove(spans)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 98            # 49 checks, untraced and traced
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == declared
