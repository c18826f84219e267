"""The package's error surface stays small: a bound that is too small is one
`BoundInsufficientError`, reported by the CLI in one place, so no subcommand
handler catches anything."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgskew"
EXCEPTION_CLASSES = {"BoundInsufficientError", "FieldMismatchError", "UsageError"}


def _base_names(cls: ast.ClassDef):
    for base in cls.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def _exception_classes():
    """Names of the classes defined under src/ that derive from an exception."""
    classes = [node for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    found = set()
    grew = True
    while grew:  # a class may derive from another one defined here
        grew = False
        for cls in classes:
            if cls.name in found:
                continue
            for name in _base_names(cls):
                builtin = getattr(builtins, name, None)
                if name in found or (isinstance(builtin, type)
                                     and issubclass(builtin, BaseException)):
                    found.add(cls.name)
                    grew = True
                    break
    return found


def test_src_defines_only_the_three_exception_classes():
    assert _exception_classes() == EXCEPTION_CLASSES


def test_no_subcommand_handler_catches_an_exception():
    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert handlers
    for fn in handlers:
        caught = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler)]
        assert caught == [], f"{fn.name} has an except clause at line {caught}"
