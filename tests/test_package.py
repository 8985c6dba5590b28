"""Package surface: every exported name exists and every demo runs."""

import subprocess
import sys
from pathlib import Path

import pytest

import fockspace

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("module", fockspace.__all__)
def test_exported_names_exist(module):
    mod = getattr(fockspace, module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
