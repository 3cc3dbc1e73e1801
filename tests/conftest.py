"""Shared fixtures.  The full simulated scans are expensive (seconds each),
so everything derived from them is session-scoped and computed once."""
import numpy as np
import pytest

from whichway import pipeline
from whichway.config import load_config

SCAN_N = 301
SCAN_STEP = 1e-4


@pytest.fixture(scope="session")
def quiet_cfg():
    """Default run configuration with the detector noise model disabled."""
    return load_config(no_noise=True)


@pytest.fixture(scope="session")
def source(quiet_cfg):
    return pipeline.make_source(quiet_cfg)


@pytest.fixture(scope="session")
def scan_grid():
    return (np.arange(SCAN_N) - (SCAN_N - 1) / 2) * SCAN_STEP


@pytest.fixture(scope="session")
def pattern_truth(quiet_cfg, source, scan_grid):
    """Directly computed pupil intensity, binned at the scan resolution."""
    return pipeline.pupil_truth(quiet_cfg.geometry, source, scan_grid, SCAN_STEP)


@pytest.fixture(scope="session")
def quiet_series(quiet_cfg, source):
    """Both configured scans (a = 4 and 5 mm), noiseless."""
    return pipeline.run_all_scans(quiet_cfg, source)


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """Artifacts of one full noisy CLI run (seed 0) in a fresh directory."""
    from whichway.cli import main

    out = tmp_path_factory.mktemp("cli_run")
    for cmd in ("fringes", "scan", "reconstruct", "report"):
        assert main([cmd, "--out", str(out), "--seed", "0"]) == 0
    return out
