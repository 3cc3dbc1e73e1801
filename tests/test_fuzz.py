"""Property tests of the input contracts: whatever a config or a scan CSV
holds, the CLI exits 0, 2, 3 or 4 and never raises."""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whichway.cli import main
from whichway.config import DEFAULT_CONFIG

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),  # an integer beyond the float range
    st.floats(),  # NaN and ±Infinity included
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

SCAN_DEFAULTS = {
    "aperture_width_m": 4e-3,
    "step_m": 1e-4,
    "n_steps": 301,
    "s_start_m": -15e-3,
    "stage_ratio": 1.07,
    "exposure_s": None,
    "frames_per_step": 4,
    "midline": "centroid",
}


def _blocks(defaults: dict):
    """Objects of schema keys (plus one unknown key) or any other JSON value.

    A value is the key's default, another key's default or any JSON value,
    so valid, mistyped and out-of-range blocks are all drawn.
    """
    value = st.one_of(st.sampled_from(list(defaults.values())), JSON_VALUES)
    keys = st.sampled_from([*defaults, "banana"])
    return st.one_of(st.dictionaries(keys, value, max_size=4), JSON_VALUES)


CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{name: _blocks(block) for name, block in DEFAULT_CONFIG.items() if isinstance(block, dict)},
        "scans": st.one_of(st.lists(_blocks(SCAN_DEFAULTS), max_size=2), JSON_VALUES),
        "seed": st.one_of(st.just(0), JSON_VALUES),
        "output_dir": JSON_VALUES,
        "banana": JSON_VALUES,
    },
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=250, deadline=None)
@given(config=CONFIGS)
def test_any_config_exits_2_or_3_with_one_error_line(workdir, config):
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    # an accepted config stops at report's missing inputs (exit 3)
    code, err = _run(["report", "--config", str(path), "--out", str(workdir / "empty")])
    assert code in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1, err


SCANS = ("scan_a4mm.csv", "scan_a5mm.csv")
CELLS = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e400", "1e300", "-0", "1.5", "x"]),
    st.text(alphabet='0123456789.e+-nafi ,"\n', max_size=6),
)


# numpy warnings (an invalid cast, an overflow) mark an input that slipped
# past the checks, so they fail the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    scan=st.sampled_from(SCANS),
    line=st.integers(0, 301),
    column=st.integers(0, 4),
    cell=CELLS,
)
def test_any_one_cell_scan_csv_edit_keeps_the_exit_codes(cli_run, workdir, scan, line, column, cell):
    paths = []
    for name in SCANS:
        text = (cli_run / name).read_text()
        if name == scan:
            lines = text.splitlines()
            cells = lines[line].split(",")
            cells[column] = cell
            lines[line] = ",".join(cells)
            text = "\n".join(lines) + "\n"
        paths.append(workdir / name)
        paths[-1].write_text(text)
    code, _ = _run(["reconstruct", *map(str, paths), "--widths-mm", "4,5", "--out", str(workdir / "out")])
    assert code in (0, 2, 3, 4)
