"""The example scripts and `python -m dgskew` run end to end on the library
as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    """Run python with the given arguments on the sources in src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script,args", [("certify_flagships.py", []),
                                         ("classification_sweep.py", ["--per-rank", "2"])])
def test_script_exits_cleanly(script, args):
    proc = _run(str(ROOT / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr


def test_python_m_dgskew_classifies_a_flagship():
    proc = _run("-m", "dgskew", "classify", "--matrix", "[[1,1,0],[1,1,0],[1,1,0]]")
    assert proc.returncode == 0, proc.stderr
    assert "presentation:" in proc.stdout


def test_python_m_dgskew_rejects_a_bad_matrix_in_one_line():
    proc = _run("-m", "dgskew", "classify", "--matrix", "[[1,2],[3,4]]")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr
