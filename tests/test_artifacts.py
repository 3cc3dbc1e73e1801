import csv

import numpy as np
import pytest

import whichway as ww
from whichway import cli
from whichway.artifacts import read_csv, read_json, write_csv, write_json


def test_writers_pin_the_artifact_bytes(tmp_path):
    table = tmp_path / "t.csv"
    write_csv(
        table,
        ["step", "x_mm", "value"],
        ["d", ".9e", ".12e"],
        [np.array([0, 1]), np.array([1.5, -2e-3]), np.array([0.25, 3.0])],
    )
    assert table.read_bytes() == (
        b"step,x_mm,value\r\n"
        b"0,1.500000000e+00,2.500000000000e-01\r\n"
        b"1,-2.000000000e-03,3.000000000000e+00\r\n"
    )
    sidecar = tmp_path / "t.json"
    write_json(sidecar, {"b": 2, "a": [0.5, True]})
    assert sidecar.read_bytes() == b'{\n  "a": [\n    0.5,\n    true\n  ],\n  "b": 2\n}\n'


def _csv_writer_oracle(path, header, formats, columns):
    """write_csv as it was: csv.writer with one format() call per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([format(value, spec) for value, spec in zip(row, formats)])


def test_write_csv_equals_the_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(7)
    n = 500
    # magnitudes from 1e-300 to 1e300 of either sign, with zeros of both signs
    floats = [rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n) for _ in range(3)]
    floats[0][:4] = [0.0, -0.0, 1e-300, -1e300]
    columns = [np.arange(-n // 2, n - n // 2), *floats, rng.normal(size=n)]
    header, formats = ["k", "a", "b", "c", "d"], ["d", ".9e", ".12e", ".6g", ".17g"]
    write_csv(tmp_path / "new.csv", header, formats, columns)
    _csv_writer_oracle(tmp_path / "old.csv", header, formats, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a float in an integer column is rejected, as format() rejects it
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["k"], ["d"], [np.array([1.5])])


def test_intensity_profile_csv_roundtrip(tmp_path):
    prof = ww.IntensityProfile(-1e-3, 1e-4, np.arange(21, dtype=float))
    path = tmp_path / "prof.csv"
    write_csv(path, *cli._PROFILE_CSV, (prof.positions, prof.values))
    back = cli._read_profile(path)
    assert back.origin == pytest.approx(prof.origin)
    assert back.pitch == pytest.approx(prof.pitch)
    assert np.allclose(back.values, prof.values)


def test_reconstruction_result_csv_and_sidecar(tmp_path):
    res = ww.ReconstructionResult(
        np.linspace(-1e-3, 1e-3, 21), np.linspace(0, 1, 21), 0.5, 21, 1e-10
    )
    write_csv(tmp_path / "r.csv", *cli._RECONSTRUCTION_CSV, (res.grid * 1e3, res.p_hat))
    write_json(tmp_path / "r.json", {"effective_rank": res.effective_rank})
    data = read_csv(tmp_path / "r.csv", ["position_mm", "P_hat"])
    assert np.allclose(data["position_mm"], res.grid * 1e3)
    assert np.allclose(data["P_hat"], res.p_hat)
    sidecar = read_json(tmp_path / "r.json", ["effective_rank"])
    assert sidecar["effective_rank"] == 21
    with pytest.raises(ww.ConfigurationError):
        ww.ReconstructionResult(np.ones(3), np.ones(4), 0.0, 3, 1e-10)
