#!/usr/bin/env python3
"""Benchmark of the whichway simulator and inverter.

Run from the repository root:

    python3 perfbench/run.py --workload cli_reference --seed 0 --seconds 10 --trace 0

Workloads (perfbench/README.md says why each exists):

  cli_reference  the default noisy bench through whichway.cli.main:
                 fringes, scan, reconstruct, report into a fresh directory
  scan_sweep     short noiseless scans over grid size x aperture width
  recon_sweep    noisy flux pairs -> stacked solve -> smoothing -> V, D ->
                 profile match, plus the full-rank dimension sets

The loop is closed with one caller in one process: each operation starts
when the previous one returns.  A pass is one sweep over the workload's
inputs; passes repeat until their summed time reaches --seconds.  The
sweeps run one untimed warm-up pass first; cli_reference does not.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
untraced and traced passes in pairs and reports the per-layer metrics; the
spans wrap whichway's public functions from the outside.  The last line of
standard output is one JSON object.  The full record (environment, every
metric with its sample count, artifact digests, failures, spans) is written
under perfbench/results/.  The exit code is 0 only when every output check
passed.
"""
import time

_T0 = time.perf_counter()  # setup_s counts the imports from here

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# cap the BLAS/OpenMP pools at the cores this process may use; this has to
# happen before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse
import contextlib
import ctypes
import functools
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5
GRIDS = (2**16, 2**17, 2**18)
RECON_WIDTHS = (40, 50)  # aperture widths in scan steps: the 4 and 5 mm scans
RECON_STEPS = 301

# recon_sweep noise level: the default bench puts about 0.95e6 (4 mm) and
# 0.86e6 (5 mm) electrons per frame into its brightest step, 4 frames a step
RECON_PEAK_E = 0.9e6
RECON_FRAMES = 4

# output-check thresholds
CRITERION_3_RMS = 0.05  # normalized residual over the central +-5 mm
CRITERION_2_RMS = 1e-6  # noiseless round-trip
FLUX_MODEL_MAX_ERR = 0.10  # per scan; the program at commit cfddb1d stays below 0.06


class ProgramMissing(Exception):
    pass


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads; the smoke test shrinks them."""

    cli_config: dict | None = None  # None: the built-in reference bench
    scan_grids: tuple = GRIDS
    scan_apertures: tuple = (2e-3, 4e-3, 8e-3)
    scan_steps: int = 12
    recon_chains: int = 120


FULL = Sizes()


def load_program():
    """Import whichway from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "whichway" / "__init__.py").is_file():
        raise ProgramMissing(f"no whichway package under {src}")
    sys.path.insert(0, str(src))
    import whichway

    if Path(whichway.__file__).resolve().parent != (src / "whichway").resolve():
        raise ProgramMissing(f"whichway was imported from {whichway.__file__}")
    from whichway import cli, config, instrument, metrics, optics, pipeline, reconstruct

    return SimpleNamespace(
        cli=cli,
        config=config,
        instrument=instrument,
        metrics=metrics,
        optics=optics,
        pipeline=pipeline,
        reconstruct=reconstruct,
        package=whichway,
        modules=(whichway, cli, config, instrument, metrics, optics, pipeline, reconstruct),
    )


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: object
    phase: str


def _n_of_first(arg, *_, **__):
    return arg.n


def _grid_n(_geom, grid, *_, **__):
    return grid.n


def _scan_tag(source, _geom, scan, *_, **__):
    return {"n": source.n, "steps": scan.n_steps}


# (module, attribute, span name, tag) for each wrapped public function; the
# tag records the grid size or step count a call worked on
TRACE_TARGETS = (
    ("cli", "main", "cli.main", lambda argv, *a, **k: argv[0]),
    ("pipeline", "make_source", "pipeline.make_source", None),
    ("pipeline", "pupil_truth", "pipeline.pupil_truth", None),
    ("pipeline", "direct_fringe_profile", "pipeline.direct_fringe_profile", None),
    ("pipeline", "run_all_scans", "pipeline.run_all_scans", None),
    ("pipeline", "reconstruct_tables", "pipeline.reconstruct_tables", None),
    ("pipeline", "result_profile", "pipeline.result_profile", None),
    ("instrument", "run_scan", "instrument.run_scan", _scan_tag),
    ("instrument", "auto_exposure", "instrument.auto_exposure", _n_of_first),
    ("instrument", "apply_aperture", "instrument.apply_aperture", _n_of_first),
    ("instrument", "image_slits", "instrument.image_slits", _n_of_first),
    ("instrument", "split_signals", "instrument.split_signals", None),
    ("instrument", "load_scan_csv", "instrument.load_scan_csv", None),
    ("instrument", "assignment_probability", "instrument.assignment_probability", None),
    ("instrument.ScanSeries", "to_csv", "instrument.to_csv", None),
    ("optics", "double_slit_field", "optics.double_slit_field", _grid_n),
    ("optics", "propagate_fresnel", "optics.propagate_fresnel", _n_of_first),
    ("optics", "check_wraparound", "optics.check_wraparound", lambda s, *a, **k: s.size),
    ("reconstruct", "build_aperture_matrix", "reconstruct.build_aperture_matrix", None),
    ("reconstruct", "rank_of", "reconstruct.rank_of", None),
    ("reconstruct", "full_rank_dims", "reconstruct.full_rank_dims", None),
    ("reconstruct", "solve_stacked", "reconstruct.solve_stacked", None),
    ("reconstruct", "gaussian_smooth", "reconstruct.gaussian_smooth", None),
    ("metrics", "visibility", "metrics.visibility", None),
    ("metrics", "distinguishability", "metrics.distinguishability", None),
    ("metrics", "duality_check", "metrics.duality_check", None),
    ("metrics", "match_profiles", "metrics.match_profiles", None),
)


class Tracer:
    """Spans (name, start, end, parent) around whichway's public functions.

    install() rebinds each target wherever a whichway module holds it, so
    calls made inside the program are traced as well as the benchmark's
    own; uninstall() restores the originals.  Spans stay in memory.
    """

    def __init__(self, ww):
        self.ww = ww
        self.spans: list = []
        self.phase = "setup"
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(
                    name, start, end, parent,
                    tag(*args, **kwargs) if tag else None, self.phase,
                )

        return traced

    def install(self):
        for owner_path, attr, name, tag in TRACE_TARGETS:
            owner = self.ww
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, tag)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in self.ww.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# --------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    """One operation of a pass: its latency and what went wrong, if anything."""

    name: str
    ms: float = 0.0
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass
class Pass:
    """One pass: its kind, wall time, operations and check results."""

    kind: str  # "warm-up", "plain" or "traced"
    seconds: float
    ops: list
    checks: SimpleNamespace


def timed_op(ops: list, name: str, fn, *args, **kwargs):
    op = Op(name)
    ops.append(op)
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        op.ms = (time.perf_counter() - t0) * 1e3
        op.errors.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return op, None
    op.ms = (time.perf_counter() - t0) * 1e3
    return op, result


def flux_model_error(ww, geom, source, scan, flux):
    """Compare F/exposure per step with the pupil power inside the aperture.

    At slit position s the aperture [lo, lo + width) sees the pupil pattern
    over [lo - s, lo + width - s).  All steps' intervals lie on one grid of
    step-wide bins, so one pipeline.pupil_truth call gives the model.
    Returns the scan's relative L2 error and its two squared norms.
    """
    k, w = scan.n_steps, scan.width_elems()
    first = scan.aperture_left_edge() - scan.s_start - (k - 1) * scan.step
    centers = first + scan.step * (np.arange(k - 1 + w) + 0.5)
    cum = np.concatenate(([0.0], np.cumsum(ww.pipeline.pupil_truth(geom, source, centers, scan.step))))
    lo = (k - 1) - np.arange(k)
    model = cum[lo + w] - cum[lo]
    sq_err, sq_model = float(np.sum((flux - model) ** 2)), float(np.sum(model**2))
    err = np.sqrt(sq_err / sq_model) if np.all(np.isfinite(flux)) else float("inf")
    return err, sq_err, sq_model


def truth_profile(ww, geom, source, positions, step, smoothing_rms):
    """Binned pupil truth, smoothed like the reconstruction, as a profile."""
    truth = ww.pipeline.pupil_truth(geom, source, positions, step)
    result = ww.reconstruct.ReconstructionResult(positions, truth, 0.0, positions.size, 0.0)
    smoothed = ww.reconstruct.gaussian_smooth(result, smoothing_rms)
    return truth, ww.optics.IntensityProfile(
        float(positions[0]), step, np.clip(smoothed.p_hat, 0.0, None)
    )


class CliReference:
    """The default noisy bench through whichway.cli.main, as users run it."""

    name = "cli_reference"
    commands = ("fringes", "scan", "reconstruct", "report")
    warm_up = False  # every CLI user pays the cold start

    def __init__(self, ww, sizes: Sizes, workdir: Path):
        self.ww, self.sizes, self.workdir = ww, sizes, workdir
        self._source = self._truth = None

    def setup(self, seed: int):
        config_path = None
        if self.sizes.cli_config is not None:
            config_path = self.workdir / "config.json"
            config_path.write_text(json.dumps(self.sizes.cli_config))
        cfg = self.ww.config.load_config(
            None if config_path is None else str(config_path), seed=seed
        )
        extra = [] if config_path is None else ["--config", str(config_path)]
        return SimpleNamespace(cfg=cfg, seed=seed, extra=extra)

    def run_pass(self, inputs, traced: bool):
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        ops = []
        for cmd in self.commands:
            argv = [cmd, "--out", str(out), "--seed", str(inputs.seed), *inputs.extra]
            with contextlib.redirect_stdout(io.StringIO()):
                op, rc = timed_op(ops, cmd, self.ww.cli.main, argv)
            if rc not in (0, None):
                op.errors.append(f"exit code {rc}")
        return SimpleNamespace(ops=ops, out=out)

    def _source_for(self, cfg):
        if self._source is None:
            self._source = self.ww.pipeline.make_source(cfg)
        return self._source

    def _truth_profile(self, cfg, positions):
        if self._truth is None:
            step = float(positions[1] - positions[0])
            self._truth = truth_profile(
                self.ww, cfg.geometry, self._source_for(cfg), positions, step, cfg.smoothing_rms
            )[1]
        return self._truth

    def check(self, inputs, output):
        ops = {op.name: op for op in output.ops}
        out, cfg, values = output.out, inputs.cfg, {}
        try:
            report = json.loads((out / "duality.json").read_text())
            v, d, q = report["V"], report["D"], report["duality"]
            values.update(V=v, D=d, duality=q)
            if not (v >= 0.6 and d >= 0.85 and q > 1.0 and report["violated"]):
                ops["report"].errors.append(
                    f"criterion 5: V={v:.4f} (>= 0.6), D={d:.4f} (>= 0.85), "
                    f"V^2+D^2={q:.4f} (> 1)"
                )
            rec = np.genfromtxt(out / "reconstruction.csv", delimiter=",", names=True)
            positions = rec["position_mm"] * 1e-3
            profile = self.ww.optics.IntensityProfile(
                float(positions[0]), float(positions[1] - positions[0]),
                np.clip(rec["P_hat"], 0.0, None),
            )
            match = self.ww.metrics.match_profiles(
                profile, self._truth_profile(cfg, positions), 1.0, cfg.window_half
            )
            values["recon_rel_rms"] = match.rms_residual
            if not match.rms_residual < CRITERION_3_RMS:
                ops["reconstruct"].errors.append(
                    f"criterion 3: residual {match.rms_residual:.4f} (< {CRITERION_3_RMS})"
                )
            num = den = 0.0
            for scan in cfg.scans:
                stem = f"scan_a{scan.aperture_width * 1e3:g}mm"
                table = self.ww.instrument.load_scan_csv(out / f"{stem}.csv")
                exposure = json.loads((out / f"{stem}.json").read_text())["exposure_s"]
                err, sq_err, sq_model = flux_model_error(
                    self.ww, cfg.geometry, self._source_for(cfg), scan, table["F"] / exposure
                )
                if not err < FLUX_MODEL_MAX_ERR:
                    ops["scan"].errors.append(f"{stem}: flux model error {err:.4f} (< {FLUX_MODEL_MAX_ERR})")
                num, den = num + sq_err, den + sq_model
            values["flux_model_rel_err"] = float(np.sqrt(num / den))
        except (OSError, KeyError, ValueError, TypeError, IndexError,
                self.ww.package.WhichwayError) as exc:
            ops["report"].errors.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
        digests, owners = {}, {}
        for path in sorted(out.glob("*")):
            if path.suffix in (".csv", ".json") and path.name != "run_manifest.json":
                digests[path.name] = sha256_file(path)
                owners[path.name] = ops[self.writer_of(path.name)]
        shutil.rmtree(out)
        return SimpleNamespace(
            values=values, digests=digests, owners=owners, accuracy=values.get("flux_model_rel_err")
        )

    @staticmethod
    def latencies(ops) -> dict:
        """Median time of each CLI command."""
        by_cmd = {}
        for op in ops:
            by_cmd.setdefault(op.name, []).append(op.ms)
        return {f"cli.{c}_ms": (statistics.median(v), "ms", len(v)) for c, v in by_cmd.items()}

    @staticmethod
    def writer_of(artifact: str) -> str:
        stem = artifact.rsplit(".", 1)[0]
        if stem == "fringes":
            return "fringes"
        if stem.startswith("scan_"):
            return "scan"
        return "reconstruct" if stem == "reconstruction" else "report"


class ScanSweep:
    """Short noiseless scans over grid size x aperture width."""

    name = "scan_sweep"
    # repeated library calls reuse allocator and FFT caches; the first pass
    # runs about 10% slower, so it is checked but not timed
    warm_up = True
    s_range = 10e-3  # strata cover s_start in [-10, 10] mm
    # the seed moves each s_start by up to 2 scan steps; wider jitter makes
    # ref_rel_err spread more from seed to seed than its bound allows
    jitter_steps = 2

    def __init__(self, ww, sizes: Sizes, workdir: Path):
        self.ww, self.sizes, self.workdir = ww, sizes, workdir

    def setup(self, seed: int):
        cfg = self.ww.config.load_config(no_noise=True)
        rng = np.random.default_rng(seed)
        grids, apertures = self.sizes.scan_grids, self.sizes.scan_apertures
        n_strata = len(grids) * len(apertures)
        width = 2 * self.s_range / n_strata
        step = self.ww.instrument.ScanConfig(aperture_width=1e-3).step
        scans = []
        for i, n in enumerate(grids):
            grid = self.ww.optics.GridSpec(n, cfg.grid.half_span)
            for j, aperture in enumerate(apertures):
                # a Latin square spreads every grid and every width over the
                # position strata; the seed jitters within a stratum
                stratum = len(grids) * ((i + j) % len(apertures)) + i
                center = -self.s_range + (stratum + 0.5) * width
                jitter = int(rng.integers(-self.jitter_steps, self.jitter_steps + 1))
                s_start = round(center / step + jitter) * step
                scans.append((grid, self.ww.instrument.ScanConfig(
                    aperture_width=aperture,
                    n_steps=self.sizes.scan_steps,
                    s_start=s_start,
                    midline="centroid",
                )))
        return SimpleNamespace(cfg=cfg, scans=scans, seed=seed)

    def run_pass(self, inputs, traced: bool):
        ww, cfg = self.ww, inputs.cfg
        geom, det = cfg.geometry, cfg.detector
        ops, results, sources = [], [], {}
        for grid, scan in inputs.scans:
            if grid.n not in sources:
                op, sources[grid.n] = timed_op(
                    ops, f"source.n{grid.n}", ww.optics.double_slit_field,
                    geom, grid, cfg.illumination_tilt,
                )
            source = sources[grid.n]
            if traced:
                # the traced pass sets the exposure itself so auto_exposure
                # gets its own span; run_scan then returns the same series
                op, exposure = timed_op(
                    ops, "auto_exposure", ww.instrument.auto_exposure, source, geom, scan, det
                )
                scan = replace(scan, exposure=exposure)
            op, series = timed_op(ops, f"scan.n{grid.n}", ww.instrument.run_scan, source, geom, scan, det)
            op.info = {"n": grid.n, "steps": scan.n_steps}
            results.append((op, source, series))
        return SimpleNamespace(ops=ops, results=results)

    def check(self, inputs, output):
        geom = inputs.cfg.geometry
        num = den = 0.0
        per_scan, digests, owners = [], {}, {}
        for i, (op, source, series) in enumerate(output.results):
            if series is None:
                continue
            try:
                flux = np.array([r.total_flux for r in series.records]) / series.config.exposure
                err, sq_err, sq_model = flux_model_error(self.ww, geom, source, series.config, flux)
                if not err < FLUX_MODEL_MAX_ERR:
                    op.errors.append(f"flux model error {err:.4f} (< {FLUX_MODEL_MAX_ERR})")
                num += sq_err
                den += sq_model
                per_scan.append(err)
                path = self.workdir / f"scan{i}.csv"
                series.to_csv(path)
                artifact = f"scan{i}_n{op.info['n']}_a{series.config.aperture_width * 1e3:g}mm.csv"
                digests[artifact] = sha256_file(path)
                owners[artifact] = op
                path.unlink()
            except (ValueError, ArithmeticError, self.ww.package.WhichwayError) as exc:
                op.errors.append(f"check failed: {type(exc).__name__}: {exc}")
        accuracy = float(np.sqrt(num / den)) if den > 0 else None
        values = {"flux_model_rel_err": accuracy, "flux_model_rel_err_max": max(per_scan, default=None)}
        return SimpleNamespace(values=values, digests=digests, owners=owners, accuracy=accuracy)


    @staticmethod
    def latencies(ops) -> dict:
        """run_scan time per step at each grid size."""
        by_grid = {}
        for op in ops:
            if op.name.startswith("scan."):
                by_grid.setdefault(op.info["n"], []).append(op.ms / op.info["steps"])
        return {f"step_ms.n{n}": (statistics.median(v), "ms", len(v)) for n, v in sorted(by_grid.items())}


class ReconSweep:
    """Reconstruction and metrics on seeded noisy flux pairs; no optics timed."""

    name = "recon_sweep"
    warm_up = True

    def __init__(self, ww, sizes: Sizes, workdir: Path):
        self.ww, self.sizes, self.workdir = ww, sizes, workdir

    def setup(self, seed: int):
        ww, sz = self.ww, self.sizes
        cfg = ww.config.load_config()
        step = ww.instrument.ScanConfig(aperture_width=1e-3).step
        n = RECON_STEPS
        positions = (np.arange(n) - (n - 1) / 2) * step
        source = ww.pipeline.make_source(cfg)
        truth, truth_prof = truth_profile(ww, cfg.geometry, source, positions, step, cfg.smoothing_rms)
        mats = [ww.reconstruct.build_aperture_matrix(n, w) for w in RECON_WIDTHS]
        clean = [m.dot(truth) for m in mats]
        exposures = [RECON_PEAK_E / c.max() for c in clean]
        # correct-assignment probabilities for the D side of the duality check
        p_correct = np.random.default_rng(seed).uniform(0.93, 0.97, sz.recon_chains)
        return SimpleNamespace(
            cfg=cfg, seed=seed, positions=positions, truth=truth, truth_prof=truth_prof,
            mats=mats, clean=clean, exposures=exposures, p_correct=p_correct,
        )

    def _chain(self, inputs, i):
        ww, cfg = self.ww, inputs.cfg
        rng = np.random.default_rng((inputs.seed, i))
        fluxes = [
            rng.poisson(RECON_FRAMES * e * c) / RECON_FRAMES
            for e, c in zip(inputs.exposures, inputs.clean)
        ]
        result = ww.reconstruct.solve_stacked(
            inputs.mats, fluxes, inputs.exposures, grid=inputs.positions, cutoff=cfg.recon_cutoff
        )
        smoothed = ww.reconstruct.gaussian_smooth(result, cfg.smoothing_rms)
        profile = ww.pipeline.result_profile(smoothed)
        vis = ww.metrics.visibility(profile, cfg.peak_selector)
        d = ww.metrics.distinguishability(float(inputs.p_correct[i]))
        report = ww.metrics.duality_check(min(vis.value, 1.0), d)
        match = ww.metrics.match_profiles(profile, inputs.truth_prof, 1.0, cfg.window_half)
        return smoothed.p_hat, report, match

    def _roundtrip(self, inputs):
        result = self.ww.reconstruct.solve_stacked(inputs.mats, inputs.clean, grid=inputs.positions)
        return float(np.linalg.norm(result.p_hat - inputs.truth) / np.linalg.norm(inputs.truth))

    def run_pass(self, inputs, traced: bool):
        ops, chains = [], []
        for i in range(self.sizes.recon_chains):
            op, out = timed_op(ops, "chain", self._chain, inputs, i)
            chains.append((op, out))
        op, rt = timed_op(ops, "roundtrip", self._roundtrip, inputs)
        roundtrip = (op, rt)
        dims = []
        for w in RECON_WIDTHS:
            op, d = timed_op(ops, f"full_rank_dims.w{w}", self.ww.reconstruct.full_rank_dims, w, RECON_STEPS)
            dims.append((op, w, d))
        return SimpleNamespace(ops=ops, chains=chains, roundtrip=roundtrip, dims=dims)

    def check(self, inputs, output):
        h = hashlib.sha256()
        residuals, visibilities = [], []
        for op, out in output.chains:
            if out is None:
                continue
            p_hat, report, match = out
            h.update(np.ascontiguousarray(p_hat).tobytes())
            residuals.append(match.rms_residual)
            visibilities.append(report.v)
            if not match.rms_residual < CRITERION_3_RMS:
                op.errors.append(f"criterion 3: residual {match.rms_residual:.4f} (< {CRITERION_3_RMS})")
        op, rt = output.roundtrip
        if rt is not None and not rt < CRITERION_2_RMS:
            op.errors.append(f"criterion 2: round-trip error {rt:.2e} (< {CRITERION_2_RMS})")
        n = RECON_STEPS
        for op, w, dims in output.dims:
            if dims is None:
                continue
            h.update(repr((w, dims)).encode())
            # criterion 1: full rank exactly at multiples of w and one past them
            expected = [m for m in range(w, n + 1) if m % w in (0, 1)]
            if dims != expected:
                op.errors.append(f"criterion 1: w={w} full-rank dims {dims} != {expected}")
        accuracy = statistics.median(residuals) if residuals else None
        values = {
            "recon_rel_rms": accuracy,
            "roundtrip_rel_rms": rt,
            "V_median": statistics.median(visibilities) if visibilities else None,
        }
        return SimpleNamespace(
            values=values,
            digests={"chains.sha256": h.hexdigest()},
            owners={"chains.sha256": output.ops[0]},
            accuracy=accuracy,
        )


    @staticmethod
    def latencies(ops) -> dict:
        """Latency of one solve-to-report chain."""
        ms = [op.ms for op in ops if op.name == "chain"]
        if not ms:
            return {}
        return {
            "recon_ms_p50": (statistics.median(ms), "ms", len(ms)),
            "recon_ms_p90": (float(np.percentile(ms, 90)), "ms", len(ms)),
        }


WORKLOADS = {cls.name: cls for cls in (CliReference, ScanSweep, ReconSweep)}


# --------------------------------------------------------------------------
# environment and results


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class DigestStore:
    """Artifact digests per (workload, seed, sizes, program source).

    A later run with the same key must reproduce the bytes; a mismatch is
    a failed check.  Only digests of fully passing runs are stored.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.data = {}

    def compare(self, key: str, digests: dict) -> list:
        known = self.data.get(key, {})
        return sorted(name for name, d in digests.items() if name in known and known[name] != d)

    def save(self, key: str, digests: dict) -> None:
        self.data[key] = digests
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")
        tmp.replace(self.path)


# --------------------------------------------------------------------------
# the run


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload_name, seed, seconds, trace, sizes=FULL, tamper=None, out=sys.stdout):
    """One benchmark run; returns (exit code, result record)."""
    spec = load_spec()
    ww = load_program()
    import_s = time.perf_counter() - _T0

    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=RESULTS_DIR))
    try:
        workload = WORKLOADS[workload_name](ww, sizes, workdir)
        tracer = Tracer(ww) if trace else None
        setup_times = []
        if trace:
            tracer.install()
            inputs = workload.setup(seed)
            tracer.uninstall()
        else:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                inputs = workload.setup(seed)
                setup_times.append(time.perf_counter() - t0)

        passes = []  # outputs are freed once checked

        def one_pass(kind):
            traced = kind == "traced"
            if traced:
                tracer.phase = "pass"
                tracer.install()
            t0 = time.perf_counter()
            output = workload.run_pass(inputs, traced)
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            if tamper is not None:
                tamper(workload_name, output)
            passes.append(Pass(kind, dt, output.ops, workload.check(inputs, output)))
            return dt

        if workload.warm_up:
            one_pass("warm-up")
        timed_total = 0.0
        while True:
            if trace:
                # pairs alternate which side goes first
                odd = sum(1 for p in passes if p.kind == "traced") % 2
                for kind in (("traced", "plain") if odd else ("plain", "traced")):
                    dt = one_pass(kind)
                    timed_total += dt if kind == "traced" else 0.0
            else:
                timed_total += one_pass("plain")
            if timed_total >= seconds:
                break
        if trace and workload_name == "scan_sweep":
            fresnel_probe(ww, tracer, inputs)
        rss = peak_rss_mb()
        return finish(
            spec, workload_name, seed, seconds, sizes, import_s, setup_times, passes, tracer, rss, out
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresnel_probe(ww, tracer, inputs, calls: int = 3):
    """One Fresnel leg per grid size through the public propagate_fresnel.

    run_scan reaches the Fresnel kernel through private copies
    (_pupil_spectrum, _propagate_unchecked), so the per-size cost of the
    public kernel is probed directly.
    """
    geom, done = inputs.cfg.geometry, set()
    tracer.phase = "probe"
    tracer.install()
    try:
        for grid, _ in inputs.scans:
            if grid.n in done:
                continue
            done.add(grid.n)
            source = ww.optics.double_slit_field(geom, grid, inputs.cfg.illumination_tilt)
            for _ in range(calls):
                ww.optics.propagate_fresnel(source, geom.dist_slits_lens, geom.wavelength)
    finally:
        tracer.uninstall()


def finish(spec, name, seed, seconds, sizes, import_s, setup_times, passes, tracer, rss, out):
    """Account failures, compare digests, print the report and the result line."""
    trace = int(tracer is not None)
    ops = [op for p in passes for op in p.ops]
    attempted = len(ops)

    # artifacts must agree byte for byte across passes and with earlier runs
    store = DigestStore(RESULTS_DIR / "digests.json")
    sizes_digest = hashlib.sha256(repr(sizes).encode()).hexdigest()[:12]
    key = f"{name}:seed{seed}:sizes-{sizes_digest}:src-{source_digest()}"
    first = passes[0].checks.digests
    for p in passes:
        names = {n for n, d in p.checks.digests.items() if first.get(n) != d}
        names.update(store.compare(key, p.checks.digests))
        for artifact in sorted(names):
            p.checks.owners.get(artifact, p.ops[-1]).errors.append(
                f"artifact {artifact} differs from an earlier run with this seed"
            )
    failed = sum(1 for op in ops if op.errors)
    if failed == 0:
        store.save(key, first)

    untraced = [p for p in passes if p.kind == "plain"]
    accuracy = [p.checks.accuracy for p in passes if p.checks.accuracy is not None]
    extras = {}  # every figure the run measured: (value, unit, samples)
    extras["wall_s"] = (statistics.median(p.seconds for p in untraced), "s", len(untraced))
    if setup_times:
        extras["setup_s"] = (import_s + statistics.median(setup_times), "s", len(setup_times))
    extras["import_s"] = (import_s, "s", 1)
    extras["peak_rss_mb"] = (rss, "MB", 1)
    extras["ref_rel_err"] = (statistics.median(accuracy) if accuracy else float("nan"), "ratio", len(accuracy))
    extras["failed_ratio"] = (failed / attempted, "ratio", attempted)
    extras.update(WORKLOADS[name].latencies([op for p in untraced for op in p.ops]))
    for key_name, value in passes[0].checks.values.items():
        if value is not None:
            extras.setdefault(key_name, (value, "ratio" if "rel" in key_name else "1", len(passes)))

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "sizes": repr(sizes),
        "attempted": attempted, "failed": failed,
        "failures": [f"{op.name}: {e}" for op in ops for e in op.errors],
        "digests": first, "passes": len(passes),
        "pass_s": [[p.kind, p.seconds] for p in passes],
        "figures": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extras.items()},
    }
    if trace:
        layer = layer_metrics(tracer.spans, passes)
        record["trace_summary"] = trace_summary(tracer.spans, passes)
        record["figures"].update({k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in layer.items()})
        metrics = {m["name"]: {"value": layer[m["name"]][0], "unit": m["unit"]} for m in spec["per_layer"]}
        dump_spans(tracer.spans, name, seed)
    else:
        metrics = {m["name"]: {"value": extras[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}

    print_report(record, out)
    stamp = f"{name}-seed{seed}-trace{trace}"
    (RESULTS_DIR / f"{stamp}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), file=out, flush=True)
    return (0 if correct else 1), record


def layer_metrics(spans, passes):
    """Per-layer figures: setup plus one traced pass, from the spans."""
    n_traced = sum(1 for p in passes if p.kind == "traced")
    total, calls, steps = {}, {}, {}
    per_grid = {}
    for s in spans:
        dur = s.end - s.start
        if s.phase in ("setup", "pass"):
            weight = 1.0 if s.phase == "setup" else 1.0 / n_traced
            key = f"cli.{s.tag}" if s.name == "cli.main" else s.name
            total[key] = total.get(key, 0.0) + dur * weight
            calls[key] = calls.get(key, 0.0) + weight
            if s.name == "instrument.run_scan":
                n, k = s.tag["n"], s.tag["steps"]
                steps[n] = steps.get(n, 0.0) + k * weight
                per_grid.setdefault(("instrument.step_ms", n), []).append(dur / k)
        if isinstance(s.tag, int) and s.name in (
            "instrument.apply_aperture", "instrument.image_slits", "optics.propagate_fresnel"
        ):
            per_grid.setdefault((f"{s.name}_ms", s.tag), []).append(dur)

    def t(name):
        return total.get(name, 0.0)

    all_steps = sum(steps.values())
    out = {
        "instrument.run_scan_s": (t("instrument.run_scan"), "s", n_traced),
        "instrument.steps": (all_steps, "count", n_traced),
        "instrument.step_ms": (t("instrument.run_scan") / all_steps * 1e3 if all_steps else 0.0, "ms", n_traced),
        "reconstruct.rank_matrices": (calls.get("reconstruct.rank_of", 0.0), "count", n_traced),
    }
    for name in (
        *(f"cli.{cmd}" for cmd in CliReference.commands),
        "instrument.auto_exposure", "optics.check_wraparound", "optics.propagate_fresnel",
        "optics.double_slit_field", "instrument.to_csv", "instrument.load_scan_csv",
        "pipeline.reconstruct_tables", "instrument.assignment_probability",
        "reconstruct.solve_stacked", "reconstruct.gaussian_smooth", "metrics.visibility",
        "metrics.match_profiles", "metrics.duality_check", "reconstruct.full_rank_dims",
        "pipeline.pupil_truth",
    ):
        out[f"{name}_s"] = (t(name), "s", n_traced)
    for n in GRIDS:
        for base in ("instrument.step_ms", "instrument.apply_aperture_ms",
                     "instrument.image_slits_ms", "optics.propagate_fresnel_ms"):
            values = per_grid.get((base, n), [])
            out[f"{base}.n{n}"] = (statistics.mean(values) * 1e3 if values else 0.0, "ms", len(values))
    return out


def trace_summary(spans, passes):
    """Self time per span name for one traced pass, coverage and overhead."""
    pass_spans = [s for s in spans if s.phase == "pass"]
    n_traced = sum(1 for p in passes if p.kind == "traced")
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    table = {}
    for i, s in enumerate(spans):
        if s.phase != "pass":
            continue
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child[i]
    for row in table.values():
        for k in row:
            row[k] /= n_traced
    traced_wall = [p.seconds for p in passes if p.kind == "traced"]
    plain_wall = [p.seconds for p in passes if p.kind == "plain"]
    top = sum(s.end - s.start for s in pass_spans if s.parent is None) / n_traced
    traced_med = statistics.median(traced_wall)
    plain_med = statistics.median(plain_wall)
    per_span = span_cost_s()
    return {
        "self_time": dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"])),
        "traced_wall_s": traced_med,
        "untraced_wall_s": plain_med,
        "overhead_s": traced_med - plain_med,
        "overhead_share": (traced_med - plain_med) / plain_med,
        "top_level_coverage": top / statistics.mean(traced_wall),
        "pairs": len(traced_wall),
        "spans_per_pass": len(pass_spans) / n_traced,
        "span_cost_s": per_span,
        "overhead_from_spans_s": per_span * len(pass_spans) / n_traced,
    }


def span_cost_s(calls: int = 20000) -> float:
    """Time one empty traced call adds, to bound the overhead by span count."""
    traced = Tracer(None)._wrap("probe", lambda: None, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - t0) / calls


def dump_spans(spans, name, seed):
    t0 = min((s.start for s in spans), default=0.0)
    rows = [
        {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent,
         "tag": s.tag, "phase": s.phase}
        for s in spans
    ]
    (RESULTS_DIR / f"{name}-seed{seed}-spans.json").write_text(json.dumps(rows) + "\n")


def print_report(record, out):
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={record['passes']} attempted={record['attempted']} failed={record['failed']}",
        file=out,
    )
    print(
        f"# nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']!r} "
        f"blas_threads={env['blas_threads']}",
        file=out,
    )
    for failure in record["failures"]:
        print(f"# FAILED {failure}", file=out)
    for name, fig in record["figures"].items():
        print(f"{name:40s} {fig['value']:>14.6g} {fig['unit']:6s} n={fig['samples']}", file=out)
    if "trace_summary" in record:
        tr = record["trace_summary"]
        print(
            f"# trace: traced wall {tr['traced_wall_s']:.4f} s, untraced {tr['untraced_wall_s']:.4f} s, "
            f"overhead {tr['overhead_s']:+.4f} s ({tr['overhead_share']:+.2%}) over {tr['pairs']} pair(s), "
            f"{tr['overhead_from_spans_s']:.4f} s from {tr['span_cost_s'] * 1e6:.2f} us a span; "
            f"top-level spans cover {tr['top_level_coverage']:.1%} of the traced pass; "
            f"{tr['spans_per_pass']:.0f} spans a pass",
            file=out,
        )
        print(f"# {'span (one traced pass)':38s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}", file=out)
        for span_name, row in tr["self_time"].items():
            print(
                f"# {span_name:38s} {row['calls']:8.0f} {row['total_s']:10.4f} {row['self_s']:10.4f}",
                file=out,
            )


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None, sizes=FULL, tamper=None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=non_negative_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        code, _ = run(args.workload, args.seed, args.seconds, args.trace, sizes, tamper, out)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
