import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import read_field_dump
from tvcontrol.driver import IterationRecord, RunReport, SolverConfig
from tvcontrol.reporting import CSV_HEADER, dump_field, serialize_report


def _report(records, terminated="tolerance_met"):
    return RunReport(
        records=records,
        terminated=terminated,
        final_control=None,
        planes=[],
        config=SolverConfig(),
    )


def test_empty_report_is_header_only():
    data = serialize_report(_report([]), "csv")
    assert data == (CSV_HEADER + "\n").encode()


def test_csv_row_formatting():
    record = IterationRecord(
        k=0, eps=1e-5, objective=7.7531234, it_master=1, it_oracle=6,
        tv_eps=0.6911234, tv_lower_bound=1.2253234, rel_error=0.27856, eoc=None,
    )
    lines = serialize_report(_report([record]), "csv").decode().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[1] == "1.00000e-05"
    assert fields[2] == "7.75312"
    assert fields[3] == "1" and fields[4] == "6"
    assert fields[7] == "0.27856"
    assert fields[8] == ""


def test_json_mirrors_record_fields():
    record = IterationRecord(
        k=2, eps=2.5e-6, objective=7.753, it_master=3, it_oracle=4,
        tv_eps=1.012, tv_lower_bound=1.229, rel_error=0.195, eoc=0.514,
    )
    payload = json.loads(serialize_report(_report([record], "max_outer"), "json"))
    assert payload["terminated"] == "max_outer"
    assert payload["config"]["eps_start"] == 1e-5
    rec = payload["records"][0]
    assert set(rec) == {
        "k", "eps", "objective", "it_master", "it_oracle",
        "tv_eps", "tv_lower_bound", "rel_error", "eoc",
    }
    assert rec["eoc"] == 0.514


def test_termination_reasons_are_enum():
    for reason in ("tolerance_met", "max_outer", "inner_failure"):
        payload = json.loads(serialize_report(_report([], reason), "json"))
        assert payload["terminated"] == reason


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        serialize_report(_report([]), "yaml")


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(min_value=0, max_value=50),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(np.array([0.1, -2.5, 1 / 3, 7.25e-13]))
@example(np.array([-0.0, 0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf, np.nan, -np.nan]))
def test_field_dump_round_trip(tmp_path_factory, values):
    # repr keeps every bit of a float but a NaN's sign and payload
    path = tmp_path_factory.mktemp("dump") / "field.txt"
    dump_field(values, path)
    loaded = read_field_dump(path)
    assert loaded.dtype == np.float64 and loaded.shape == values.shape
    nan = np.isnan(values)
    assert np.array_equal(np.isnan(loaded), nan)
    assert np.array_equal(loaded[~nan].view(np.uint64), values[~nan].view(np.uint64))


def test_dump_headers(tmp_path):
    path = tmp_path / "f.txt"
    dump_field(np.zeros(3), path)
    assert path.read_text().splitlines()[0] == "p0 3"


def test_dump_to_unwritable_path_fails(tmp_path):
    with pytest.raises(OSError):
        dump_field(np.zeros(2), tmp_path / "missing_dir" / "f.txt")


def test_dump_rejects_unknown_type(tmp_path):
    # a dump holds one value per cell: a two-dimensional array is no field it knows
    path = tmp_path / "f.txt"
    with pytest.raises(ValueError, match=r"one-dimensional.*\(3, 2\)"):
        dump_field(np.zeros((3, 2)), path)
    assert not path.exists()
