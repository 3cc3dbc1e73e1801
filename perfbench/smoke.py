#!/usr/bin/env python3
"""Smoke test of the benchmark at small sizes (about a minute on 2 cores).

    python3 perfbench/smoke.py

Checks that every workload prints each metric named in BENCHMARK.json with
its unit, untraced and traced, and that a corrupted artifact is counted as
a failed operation and makes the run exit non-zero.  Exits 0 when all hold.
"""
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SMALL = bench.Sizes(
    cli_config={
        "geometry": {},
        "source": {"grid_n": 2**16},
        "scans": [
            {"aperture_width_m": 4e-3, "midline": "centroid", "n_steps": 121, "s_start_m": -6e-3},
            {"aperture_width_m": 5e-3, "midline": "centroid", "n_steps": 121, "s_start_m": -6e-3},
        ],
    },
    scan_grids=(2**16,),
    scan_apertures=(4e-3,),
    scan_steps=4,
    recon_chains=12,
)


def run_small(workload, trace, tamper=None):
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    code = bench.main(argv, sizes=SMALL, tamper=tamper, out=buf)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def corrupt_report(workload, output):
    (output.out / "duality.json").write_text('{"V": 0.1')


def main() -> int:
    spec = bench.load_spec()
    problems = []
    for workload in sorted(bench.WORKLOADS):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_small(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: exit {code}, {result['failed']} failed")
            if got != expected:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(expected)}")
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{workload} trace={trace}: non-numeric values for {bad}")
            print(f"{workload} trace={trace}: exit {code}, {len(got)} metrics", flush=True)

    code, result = run_small("cli_reference", 0, tamper=corrupt_report)
    if code == 0 or result["correct"] or not result["failed"] / result["attempted"] > 0:
        problems.append(f"corrupted duality.json went unnoticed: exit {code}, {result}")
    print(f"corrupted artifact: exit {code}, failed {result['failed']}/{result['attempted']}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
