"""No module in src/ or tests/ imports a name it never uses, the package
runs without scipy (the tests keep it as their oracle), and every name the
benchmark looks up exists, the run config's attributes included."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import whichway
from whichway.config import load_config

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports only to re-export
EXEMPT = {ROOT / "src" / "whichway" / "__init__.py"}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.fft.fft starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_imports():
    files = sorted({*ROOT.glob("src/whichway/*.py"), *ROOT.glob("tests/*.py")} - EXEMPT)
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_four_commands_load_no_scipy_module(tmp_path):
    # a short noiseless run of the four commands in one fresh process
    scans = [{"aperture_width_m": w, "n_steps": 101, "s_start_m": -5e-3} for w in (4e-3, 5e-3)]
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"geometry": {}, "scans": scans}))
    code = (
        "import sys, whichway\n"
        "from whichway.cli import main\n"
        "for cmd in ('fringes', 'scan', 'reconstruct', 'report'):\n"
        "    assert main([cmd, '--no-noise', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(*[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, str(config), str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert (tmp_path / "run" / "summary.txt").exists()
    assert run.stdout.splitlines()[-1].split() == []


def _benchmark_names() -> tuple[set, set]:
    """The (owner, attribute) pairs that perfbench/run.py looks up: each
    ww.<module>.<name> in its text, and each pair in its TRACE_TARGETS.  The
    owner "package" is whichway itself."""
    text = (ROOT / "perfbench" / "run.py").read_text()
    (targets,) = [
        node.value
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets)
    ]
    traced = {(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts}
    return set(re.findall(r"\bww\.(\w+)\.(\w+)", text)), traced


def test_every_name_the_benchmark_looks_up_resolves():
    looked_up, traced = _benchmark_names()
    assert looked_up and traced
    missing = []
    for owner_path, attr in sorted(looked_up | traced):
        module, *rest = owner_path.split(".")
        owner = whichway if module == "package" else importlib.import_module(f"whichway.{module}")
        for part in rest:
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, "perfbench/run.py looks up missing names: " + ", ".join(missing)


def test_every_config_attribute_the_benchmark_reads_resolves():
    # the harness reads fields and class constants of the run config alike
    read = set(re.findall(r"\bcfg\.(\w+)", (ROOT / "perfbench" / "run.py").read_text()))
    assert {"smoothing_rms", "peak_selector", "recon_cutoff", "window_half"} <= read
    cfg = load_config()
    missing = sorted(attr for attr in read if not hasattr(cfg, attr))
    assert not missing, "perfbench/run.py reads missing config attributes: " + ", ".join(missing)
