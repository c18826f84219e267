"""The generic algebra layers know nothing of the case chart: presentations
and resolutions work over any presented algebra, and the classifier owns
the case labels, the case presentations and their representatives.  The
cochain-complex engine sits on the linear algebra alone, and the package
on the standard library alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dgskew"
CASE_MODULES = {"classify", "cohomology", "dg", "skew"}
CASE_LABEL = re.compile(r"R[0-3]\b|R1[a-f]|R2_")


def _package_imports(tree):
    """The dgskew modules that a module's import statements name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("dgskew"):
                    continue
                module = module.removeprefix("dgskew").lstrip(".")
            # "from . import x" names the module x itself
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("dgskew.")}
    return names


@pytest.mark.parametrize("module", ["presentations", "resolution"])
def test_generic_layers_stay_off_the_case_chart(module):
    source = (SRC / f"{module}.py").read_text()
    assert _package_imports(ast.parse(source)) & CASE_MODULES == set()
    assert [line for line in source.splitlines() if CASE_LABEL.search(line)] == []


def test_the_complex_engine_imports_only_linear_algebra_and_fields():
    assert _package_imports(ast.parse((SRC / "complexes.py").read_text())) <= {"linalg", "fields"}


# the modules that may know where a monomial sits in its degree's basis:
# the algebra, the kernel of the differential and the facade that re-exports
BASIS_LAYOUT_MODULES = {"skew", "dg", "__init__"}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem not in BASIS_LAYOUT_MODULES))
def test_the_basis_layout_stays_behind_skew_and_the_differential(module):
    # elements carry their position vectors, so no layer above needs it
    imported = {a.name for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported & {"basis_position", "degree_basis"} == set()


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_the_package_imports_only_the_standard_library_and_itself(module):
    # pyproject.toml declares no runtime dependency
    imported = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
    assert imported - sys.stdlib_module_names - {"dgskew"} == set()


def test_importing_the_package_and_its_command_line_loads_no_dataclasses():
    # the package defines its classes by hand: generating a dataclass costs
    # about 0.4 ms at import (0.9 ms frozen), and `dataclasses` pulls in
    # `inspect`, about 8 ms more for every command-line call.  -S keeps the
    # interpreter's site hooks, which may import anything, out of the check
    code = ("import sys, dgskew, dgskew.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True).stdout
    assert out == "[]\n"
