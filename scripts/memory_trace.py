#!/usr/bin/env python3
"""Trace a campaign's time and memory check by check.

    python scripts/memory_trace.py [CONFIG]

Runs the campaign of CONFIG (the built-in default campaign without one)
into a fresh temporary output and cache directory, so every check runs
and every spectrum is solved cold, and prints one line per check in run
order: its model, its wall time, and the process's resident set
(``VmRSS``) and peak resident set (``VmHWM``) in MB once it has finished.
Both are read from ``/proc/self/status``; where that file is missing, the
peak is ``ru_maxrss`` and the resident set is not shown.  The first line
is the process before the campaign starts.  Set the BLAS thread count in
the environment (``OPENBLAS_NUM_THREADS=1``) to compare with the benchmark.
"""
import argparse
import resource
import sys
import tempfile
import time

from heatlab import cli


def memory_mb():
    """(VmRSS, VmHWM) of this process in MB; VmRSS is nan where
    ``/proc/self/status`` cannot be read."""
    try:
        with open("/proc/self/status") as fh:
            kb = {key: float(rest.split()[0]) for key, _, rest in
                  (line.partition(":") for line in fh)
                  if key in ("VmRSS", "VmHWM")}
        return kb["VmRSS"] / 1024.0, kb["VmHWM"] / 1024.0
    except (OSError, KeyError, ValueError, IndexError):
        # ru_maxrss is in kB on Linux
        return float("nan"), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def row(check, model, seconds, rss, hwm):
    print(f"{check:34s} {model:10s} {seconds:>8s} {rss:>10s} {hwm:>10s}", flush=True)


def traced(runner):
    def run(ctxs, spec, cfg, name):
        t0 = time.perf_counter()
        rep = runner(ctxs, spec, cfg, name)
        rss, hwm = memory_mb()
        row(name, spec["model"], f"{time.perf_counter() - t0:.3f}",
            f"{rss:.1f}", f"{hwm:.1f}")
        return rep
    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("config", nargs="?", help="campaign config file (key/value or JSON)")
    args = ap.parse_args()

    try:
        cfg = cli.CampaignConfig.from_dict(
            cli.load_config_file(args.config) if args.config else {})
    except cli.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for cid, runner in list(cli.CHECK_RUNNERS.items()):
        cli.CHECK_RUNNERS[cid] = traced(runner)
    row("check", "model", "s", "VmRSS MB", "VmHWM MB")
    rss, hwm = memory_mb()
    row("(start)", "", "", f"{rss:.1f}", f"{hwm:.1f}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg.output_dir, cfg.cache_dir = f"{tmp}/out", f"{tmp}/cache"
        t0 = time.perf_counter()
        rc = cli.run_campaign(cfg, log=lambda line: None)
    rss, hwm = memory_mb()
    row("(end)", "", f"{time.perf_counter() - t0:.3f}", f"{rss:.1f}", f"{hwm:.1f}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
