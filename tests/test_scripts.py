"""The example scripts and `python -m dgskew` run end to end on the library
as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args, stdout=subprocess.PIPE):
    """Run python with the given arguments on the sources in src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300)


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


def test_python_m_dgskew_on_a_closed_stdout_exits_141_without_a_traceback():
    # the read end of stdout's pipe is closed before the run starts, as in
    # `dgskew cohomology ... | true`; exit 1 would claim a falsification
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run("-m", "dgskew", "cohomology", "--matrix", "[[0,0,0],[0,0,0],[0,0,0]]",
                    "--max-degree", "20", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""
