"""Serialization of run reports and field dumps.

CSV columns: k,eps,J,it_P,it_Q,tv_eps,tv_lb,err,eoc with floats at 6
significant digits and eps in scientific notation; unknown entries stay
empty. JSON mirrors the iteration-record field names and echoes the solver
configuration and termination reason. A field dump is plain text: the
header line "p0 <ncells>" followed by one cell value per line in mesh
order, with full-precision floats.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .driver import RunReport

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
            "config": asdict(report.config),
            "terminated": report.terminated,
            "records": [asdict(r) for r in report.records],
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format: {format!r}")


def dump_field(values: np.ndarray, path) -> None:
    """Write cell values as the header ``p0 <ncells>`` and one ``repr(float)`` per line.

    ``repr`` round-trips every float exactly. Raises ValueError unless
    ``values`` is one-dimensional.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"a field dump holds a one-dimensional array, got shape {values.shape}")
    lines = [f"p0 {values.size}"] + [repr(float(v)) for v in values]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write field dump to {path}: {exc}") from exc

