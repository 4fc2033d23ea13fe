"""Tier-1 tests for the runtime/analysis import boundary.

Runtime modules annotate their APIs with :mod:`repro.contracts`; the
lint engines in :mod:`repro.analysis` read those annotations off the
source. Nothing on the simulation path may load the analysis stack,
and the contracts module itself must stay dependency-free.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

RUNTIME_MODULES = (
    "repro.sim.parallel",
    "repro.sim.engine",
    "repro.phy",
    "repro.vanatta",
    "repro.obs",
    "repro.rng",
)


def test_runtime_imports_load_no_analysis_module():
    code = (
        "import json, sys\n"
        f"import {', '.join(RUNTIME_MODULES)}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro.analysis'))))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert json.loads(out.stdout) == []


def test_contracts_import_only_the_standard_library():
    stdlib = getattr(sys, "stdlib_module_names", None)
    if stdlib is None:
        pytest.skip("sys.stdlib_module_names needs Python 3.10+")
    path = Path(repro.__file__).resolve().parent / "contracts.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported
    assert imported <= set(stdlib), sorted(imported - set(stdlib))
