"""The example scripts and `python -m dgskew` run end to end on the library
as it stands."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from dgskew import QQ, Matrix, classify

ROOT = Path(__file__).resolve().parent.parent
# sha256 of the standard output, recorded while the script still resolved
# each flagship twice and built its Ext table twice
STDOUT_SHA256 = {
    "certify_flagships.py": "fcd1faa7dd779157a15b12a5c1cf60e22ff401998f5da134f53eb82f886c73b1",
}


def _run(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run python with the given arguments on the sources in src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          stdout=stdout, stderr=stderr, text=True, timeout=300)


def _run_closed(*args, stream):
    """_run with `stream` ("stdout" or "stderr") on a pipe whose read end is
    closed before the run starts, as in `dgskew ... | true`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run(*args, **{stream: write_end})
    finally:
        os.close(write_end)


@pytest.mark.parametrize("script,args", [("certify_flagships.py", []),
                                         ("classification_sweep.py", ["--per-rank", "2"])])
def test_script_exits_cleanly(script, args):
    proc = _run(str(ROOT / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr
    if script in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script]


def test_certify_flagships_resolves_each_flagship_once(resolutions):
    namespace = runpy.run_path(str(ROOT / "scripts" / "certify_flagships.py"),
                               run_name="__main__")
    assert resolutions == [classify(Matrix.from_rows(QQ, rows)).predicted_presentation.render()
                           for rows in namespace["FLAGSHIPS"]]


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
    # exit 1 would claim a falsification
    proc = _run_closed("-m", "dgskew", "cohomology", "--matrix", "[[0,0,0],[0,0,0],[0,0,0]]",
                       "--max-degree", "20", stream="stdout")
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


def test_python_m_dgskew_keeps_a_falsification_on_a_closed_stdout(tmp_path):
    # a closed stdout turns only a 0 into 141; the report is written first
    out = tmp_path / "crosscheck.json"
    proc = _run_closed("-m", "dgskew", "crosscheck", "--matrix", "[[1,1,0],[1,1,0],[1,1,0]]",
                       "--max-degree", "4", "--out", str(out), stream="stdout")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert json.loads(out.read_text())["ok"] is False


def test_python_m_dgskew_keeps_a_usage_error_on_a_closed_stderr():
    # exit 1 would claim a falsification
    proc = _run_closed("-m", "dgskew", "classify", "--matrix", "[[1]]", stream="stderr")
    assert proc.returncode == 2, proc.stdout
