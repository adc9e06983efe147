"""Margin reports: the uniform result format of every inequality check.

A check evaluates one inequality family over a sample grid and records,
per sample, the two sides and the margin ``rhs - lhs``.  The check passes
when the worst margin stays above ``-(abs_tol + rel_tol * scale)``.
"""
from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Tolerance:
    """(absolute, relative, mesh-order) tolerance triple.

    ``mesh_order`` documents the expected convergence order of the
    discretization error absorbed by ``abs``; it does not enter the
    verdict directly.
    """

    abs: float
    rel: float = 0.0
    mesh_order: float | None = None

    def slack(self, scale: float) -> float:
        return self.abs + self.rel * abs(scale)


@dataclass
class MarginReport:
    check_id: str
    model_id: str
    samples: list[dict]
    min_margin: float
    tolerance: Tolerance
    scale: float = 1.0
    metadata: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tolerance.slack(self.scale)

    def worst_sample(self) -> dict | None:
        if not self.samples:
            return None
        return min(self.samples, key=lambda s: s.get("margin", float("inf")))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "check_id": self.check_id,
            "model_id": self.model_id,
            "min_margin": self.min_margin,
            "tolerance": {
                "abs": self.tolerance.abs,
                "rel": self.tolerance.rel,
                "mesh_order": self.tolerance.mesh_order,
            },
            "scale": self.scale,
            "verdict": self.verdict,
            "samples": self.samples,
            "metadata": self.metadata,
        }

    def dumps(self) -> str:
        # sort_keys + default float repr -> byte-stable output for fixed inputs
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def save(self, path: str) -> None:
        atomic_write_text(path, self.dumps())

    def csv_rows(self):
        """Flatten samples to rows (sample params become columns)."""
        keys: list[str] = []
        for s in self.samples:
            for k in s:
                if k not in keys:
                    keys.append(k)
        header = ["check_id", "model_id"] + keys
        rows = [header]
        for s in self.samples:
            rows.append([self.check_id, self.model_id] + [_csv_cell(s.get(k)) for k in keys])
        return rows

    @staticmethod
    def from_json_dict(d: dict) -> "MarginReport":
        """ValueError when ``d`` or its ``tolerance`` is not a JSON object."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a report object, got {type(d).__name__}")
        tol = d.get("tolerance", {})
        if not isinstance(tol, dict):
            raise ValueError(f"tolerance: expected an object, got {type(tol).__name__}")
        return MarginReport(
            check_id=d["check_id"],
            model_id=d["model_id"],
            samples=d.get("samples", []),
            min_margin=d["min_margin"],
            tolerance=Tolerance(tol.get("abs", 0.0), tol.get("rel", 0.0), tol.get("mesh_order")),
            scale=d.get("scale", 1.0),
            metadata=d.get("metadata", {}),
            schema_version=d.get("schema_version", SCHEMA_VERSION),
        )

    @staticmethod
    def load(path: str) -> "MarginReport":
        with open(path, "r") as fh:
            return MarginReport.from_json_dict(json.load(fh))


def run_digest(output_dir: str) -> dict:
    """Every report of a campaign output directory, by its campaign name
    (the file name): its verdict, ``min_margin``, ``scale``, sample count
    and sample margins."""
    digest = {}
    for name in sorted(os.listdir(output_dir)):
        if name.endswith(".json"):
            rep = MarginReport.load(os.path.join(output_dir, name))
            margins = [s.get("margin") for s in rep.samples]
            digest[name[:-len(".json")]] = {
                "verdict": rep.verdict, "min_margin": rep.min_margin, "scale": rep.scale,
                "samples": len(margins), "margins": margins}
    return digest


def _moved(x, y, scale: float) -> float:
    """|y - x| / |scale|; inf when one side is missing or the difference
    is not a number."""
    if x == y:
        return 0.0
    if x is None or y is None:
        return math.inf
    d = abs(y - x) / (abs(scale) or 1.0)
    return math.inf if math.isnan(d) else d


def compare_digests(a: dict, b: dict) -> list[tuple]:
    """(report name, verdict in a, verdict in b, move) for every report of
    either digest, where move is the largest |b - a| / |scale of a| over
    ``min_margin``, ``scale`` and the margins of the samples, paired by
    position.  A report missing on one side has verdict None there, and it
    or a changed sample count moves by inf."""
    rows = []
    for name in sorted(a.keys() | b.keys()):
        ra, rb = a.get(name), b.get(name)
        if ra is None or rb is None or ra["samples"] != rb["samples"]:
            move = math.inf
        else:
            pairs = [(ra["min_margin"], rb["min_margin"]), (ra["scale"], rb["scale"]),
                     *zip(ra["margins"], rb["margins"])]
            move = max(_moved(x, y, ra["scale"]) for x, y in pairs)
        rows.append((name, ra and ra["verdict"], rb and rb["verdict"], move))
    return rows


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v, sort_keys=True)
    return v


def atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename so readers never see partial output."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, rows) -> None:
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for r in rows:
        w.writerow(r)
    atomic_write_text(path, buf.getvalue())
