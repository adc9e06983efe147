#!/usr/bin/env python3
"""Compare two campaign runs report by report.

    python scripts/compare_runs.py A B
    python scripts/compare_runs.py --save DIGEST RUN

A and B are each a campaign output directory or a digest file written by
``--save`` (such as ``tests/golden/default-seed42.json``).  For each
report it prints the verdict on both sides and the largest move of
``min_margin``, ``scale`` or a sample margin, as a fraction of A's scale;
every changed verdict is marked.  Samples pair by position, so a report
whose sample count changed moves by inf; its line gives the counts and the
signed move of ``min_margin`` instead.  When A and B are both output
directories it also counts the reports whose files are byte-identical,
and names the others, each with the top-level keys whose values differ
and, inside ``metadata``, the metadata keys
(``harnack-heis (metadata.distance)``).  The exit code is 1
when a verdict changed or a report is missing on one side, else 0.

``--save`` writes the digest of the output directory RUN to DIGEST.
Regenerating the golden digest is a deliberate act: list every report
that moved, and why, with the change that does it.
"""
import argparse
import json
import os
import sys

from heatlab.reports import compare_digests, run_digest


def load(path):
    if os.path.isdir(path):
        return run_digest(path)
    with open(path) as fh:
        return json.load(fh)


def report_bytes(run, name):
    """The bytes of report ``name`` in ``run`` (None when the file is
    missing)."""
    path = os.path.join(run, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def differing_keys(run_a, run_b, name):
    """The keys whose values differ between report ``name`` of ``run_a`` and
    of ``run_b``: top-level keys, and ``metadata.<key>`` inside the metadata.
    Empty when a side is missing."""
    reps = []
    for run in (run_a, run_b):
        path = os.path.join(run, f"{name}.json")
        if not os.path.exists(path):
            return []
        with open(path) as fh:
            reps.append(json.load(fh))
    a, b = reps
    keys = []
    for key in sorted(a.keys() | b.keys()):
        if key == "metadata":
            ma, mb = a.get(key, {}), b.get(key, {})
            keys += [f"metadata.{k}" for k in sorted(ma.keys() | mb.keys())
                     if ma.get(k) != mb.get(k)]
        elif a.get(key) != b.get(key):
            keys.append(key)
    return keys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--save", metavar="DIGEST", help="write the digest of RUN to DIGEST")
    ap.add_argument("runs", nargs="+", metavar="RUN")
    args = ap.parse_args()
    if args.save:
        if len(args.runs) != 1:
            ap.error("--save takes one RUN")
        with open(args.save, "w") as fh:
            fh.write(json.dumps(run_digest(args.runs[0]), sort_keys=True, indent=1) + "\n")
        return 0
    if len(args.runs) != 2:
        ap.error("give two runs A B")
    a, b = load(args.runs[0]), load(args.runs[1])
    rows = compare_digests(a, b)
    width = max(len(name) for name, *_ in rows)
    print(f"{'report':<{width}}  {'verdict A -> B':<16} max |dmargin|/scale")
    changed = 0
    for name, va, vb, move in rows:
        flag = "" if va == vb else "   CHANGED"
        changed += va != vb
        ra, rb = a.get(name), b.get(name)
        if ra and rb and ra["samples"] != rb["samples"]:
            dmin = (rb["min_margin"] - ra["min_margin"]) / (abs(ra["scale"]) or 1.0)
            move = f"samples {ra['samples']} -> {rb['samples']}, min_margin {dmin:+.3g}"
        else:
            move = f"{move:.3g}"
        print(f"{name:<{width}}  {f'{va} -> {vb}':<16} {move}{flag}")
    worst = max(rows, key=lambda r: r[3])
    print(f"{len(rows)} reports, {changed} changed verdicts, "
          f"largest move {worst[3]:.3g} of scale ({worst[0]})")
    if all(os.path.isdir(run) for run in args.runs):
        differ = [name for name, *_ in rows
                  if report_bytes(args.runs[0], name) != report_bytes(args.runs[1], name)]
        print(f"{len(rows) - len(differ)} of {len(rows)} reports byte-identical")
        for name in differ:
            keys = differing_keys(args.runs[0], args.runs[1], name)
            print(f"  differs: {name}" + (f" ({', '.join(keys)})" if keys else ""))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
