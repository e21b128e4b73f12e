"""Serialization of run reports and field dumps.

CSV columns: k,eps,J,it_P,it_Q,tv_eps,tv_lb,err,eoc with floats at 6
significant digits and eps in scientific notation; unknown entries stay
empty. JSON mirrors the iteration-record field names and echoes the solver
configuration and termination reason. Field dumps are plain text: a header
line ("p0 <ncells>" or "p1 <nnodes> <components>") followed by one value
(or pair) per line in mesh index order, with full-precision floats.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .driver import RunReport
from .mesh_fem import P0Field, P1ScalarField, P1VectorField

CSV_HEADER = "k,eps,J,it_P,it_Q,tv_eps,tv_lb,err,eoc"


def _fmt(x, sci: bool = False) -> str:
    if x is None:
        return ""
    return f"{x:.5e}" if sci else f"{x:.6g}"


def serialize_report(report: RunReport, format: str = "csv") -> bytes:
    if format == "csv":
        lines = [CSV_HEADER]
        for r in report.records:
            lines.append(
                ",".join(
                    [
                        str(r.k),
                        _fmt(r.eps, sci=True),
                        _fmt(r.objective),
                        str(r.it_master),
                        str(r.it_oracle),
                        _fmt(r.tv_eps),
                        _fmt(r.tv_lower_bound),
                        _fmt(r.rel_error),
                        _fmt(r.eoc),
                    ]
                )
            )
        return ("\n".join(lines) + "\n").encode()
    if format == "json":
        payload = {
            "config": asdict(report.config) if report.config is not None else {},
            "terminated": report.terminated,
            "records": [asdict(r) for r in report.records],
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format: {format!r}")


def dump_field(field, path) -> None:
    """Write a field as plain text; floats use repr for exact round-trips."""
    path = Path(path)
    if isinstance(field, P0Field):
        lines = [f"p0 {field.values.size}"]
        lines += [repr(float(v)) for v in field.values]
    elif isinstance(field, P1ScalarField):
        lines = [f"p1 {field.values.size} 1"]
        lines += [repr(float(v)) for v in field.values]
    elif isinstance(field, P1VectorField):
        lines = [f"p1 {field.values.shape[0]} 2"]
        lines += [f"{float(v[0])!r} {float(v[1])!r}" for v in field.values]
    else:
        raise TypeError(f"cannot dump field of type {type(field).__name__}")
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write field dump to {path}: {exc}") from exc


def load_field(path):
    path = Path(path)
    lines = path.read_text().strip().splitlines()
    head = lines[0] if lines else ""
    header, body = head.split(), lines[1:]
    if len(header) == 2 and header[0] == "p0":
        values = np.array([float(s) for s in body])
        if values.size != int(header[1]):
            raise ValueError(f"p0 dump announces {header[1]} cells, has {values.size}")
        return P0Field(values)
    if len(header) == 3 and header[0] == "p1":
        count, components = int(header[1]), int(header[2])
        rows = [[float(s) for s in line.split()] for line in body]
        values = np.array(rows)
        if values.shape != (count, components):
            raise ValueError(f"p1 dump shape {values.shape} != ({count}, {components})")
        if components == 1:
            return P1ScalarField(values[:, 0])
        return P1VectorField(values)
    raise ValueError(f"malformed field dump header in {path}: {head!r}")
