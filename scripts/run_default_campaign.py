#!/usr/bin/env python3
"""Run the default campaign and emit the featured plot series.

Equivalent to `heatlab campaign` plus `heatlab report` for the margin
curves most worth looking at: pointwise gradient-of-log margins against
time, ball doubling ratios against radius, and the entropy decay line.
Each goes to `OUT/plots/<check name>-<kind>.csv` and `.svg`.
"""
import argparse
import os
import sys

from heatlab.cli import default_config, emit_plot_data, run_campaign
from heatlab.reports import MarginReport

PLOTS = [
    ("li-yau-euclid2", "li-yau"),
    ("li-yau-heis", "li-yau"),
    ("volume-heis", "doubling"),
    ("volume-euclid2", "doubling"),
    ("log-sobolev-sphere", "entropy"),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="campaign-out")
    ap.add_argument("--cache", default="campaign-cache")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    cfg = default_config()
    cfg.output_dir = args.out
    cfg.cache_dir = args.cache
    cfg.seed = args.seed
    rc = run_campaign(cfg)
    for written in emit_featured_plots(args.out):
        print("plot:", written)
    return rc


def emit_featured_plots(out_dir):
    """Write the ``PLOTS`` series of the reports in ``out_dir`` to
    ``out_dir/plots``, one file pair per entry; return the paths written."""
    plot_dir = os.path.join(out_dir, "plots")
    written = []
    for name, kind in PLOTS:
        path = os.path.join(out_dir, f"{name}.json")
        if os.path.exists(path):
            written += emit_plot_data(MarginReport.load(path), kind, plot_dir, name)
    return written


if __name__ == "__main__":
    sys.exit(main())
