"""Command-line front end.

Each subcommand is declared once, in `SUBCOMMANDS`: its name, help text,
handler and the options its handler reads; every subcommand also takes
--field, --config and --out.  Structured output is JSON (rationals as
"p/q" strings, fixed orderings, byte-identical across runs); a text summary
goes to stdout.
Exit status: 0 success/pass, 1 falsification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .classify import classify, crosscheck, predicted_vs_certified
from .cohomology import cohomology
from .dg import DGSpec, verify_dg
from .errors import BoundInsufficientError
from .fields import field_from_name, parse_scalar
from .linalg import Matrix
from .suite import CRITERIA, run_suite
from .transform import invariance_check

FIELD_ENV_VAR = "DGSKEW_FIELD"

# config keys that are read as they are; matrices are checked when parsed
CONFIG_TYPES = {"field": str, "out": str, "max_degree": int, "hom_bound": int, "int_bound": int}


class UsageError(ValueError):
    pass


@dataclass
class JobConfig:
    field: object
    matrix: Matrix | None
    max_degree: int = 8
    hom_bound: int = 6
    int_bound: int = 10
    transform: Matrix | None = None
    out: str | None = None
    criteria: set | None = None  # paper-suite's --criteria; None runs them all

    def require_matrix(self) -> Matrix:
        if self.matrix is None:
            raise UsageError("a --matrix (or config matrix) is required")
        return self.matrix


def _parse_matrix(field, data) -> Matrix:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as e:  # malformed, or an integer too long to read
            raise UsageError(f"malformed matrix JSON: {e}") from e
    if (not isinstance(data, list) or len(data) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in data)):
        raise UsageError("matrix must be a 3x3 JSON array")
    def entry(x):
        # type(), not isinstance(): a JSON true is not the integer 1
        if isinstance(x, list):  # rational as an integer pair [p, q]
            if len(x) != 2 or not all(type(v) is int for v in x):
                raise UsageError(f"bad rational pair {x!r}")
            if field.coerce(x[1]) == 0:
                raise ValueError(f"coefficient {x!r} has a zero denominator in {field.name}")
            return Fraction(x[0], x[1])
        if isinstance(x, str):  # the grammar's scalar, with an optional sign
            negative = x.startswith("-")
            value = parse_scalar(field, x[1:] if negative else x)
            return -value if negative else value
        if type(x) is not int:
            raise UsageError(f"{x!r} is not an integer, a 'p/q' string or a pair [p, q]")
        return x
    try:
        return Matrix.from_rows(field, [[entry(x) for x in row] for row in data])
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad matrix entry: {e}") from e


def _build_config(args) -> JobConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(raw, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        for name, kind in CONFIG_TYPES.items():
            # type(), not isinstance(): a JSON true is not the integer 1
            if name in raw and type(raw[name]) is not kind:
                raise UsageError(f"config {name} must be "
                                 f"{'an integer' if kind is int else 'a string'}, got {raw[name]!r}")

    field_name = args.field or raw.get("field") or os.environ.get(FIELD_ENV_VAR) or "Q"
    try:
        field = field_from_name(field_name)
    except ValueError as e:
        raise UsageError(str(e)) from e

    def pick(name, default=None):
        v = getattr(args, name, None)
        return raw.get(name, default) if v is None else v

    def bounded(name, default, low):
        """pick(), range-checked; the error names the flag or config key that was set."""
        v = pick(name, default)
        if v < low:
            source = (f"config {name}" if getattr(args, name, None) is None
                      else "--" + name.replace("_", "-"))
            raise UsageError(f"{source} must be >= {low}")
        return v

    matrix_data, transform_data = pick("matrix"), pick("transform")
    cfg = JobConfig(field,
                    None if matrix_data is None else _parse_matrix(field, matrix_data),
                    max_degree=bounded("max_degree", 8, 2),
                    hom_bound=bounded("hom_bound", 6, 1),
                    int_bound=bounded("int_bound", 10, 0),
                    transform=(None if transform_data is None
                               else _parse_matrix(field, transform_data)),
                    out=args.out or raw.get("out"))
    cfg.criteria = _parse_criteria(getattr(args, "criteria", None))
    return cfg


def _emit(cfg: JobConfig, payload: dict, summary: str):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise UsageError(f"cannot write {cfg.out}: {e.strerror}") from e
    print(summary)


def _cmd_cohomology(cfg: JobConfig) -> tuple:
    M = cfg.require_matrix()
    report = cohomology(DGSpec(cfg.field, M), cfg.max_degree)
    return report.to_json(), f"dims: {report.dims}", 0


def _cmd_classify(cfg: JobConfig) -> tuple:
    M = cfg.require_matrix()
    c = classify(M)
    summary = (f"rank {c.rank}, case {c.case_label}, verdict {c.predicted_gorenstein}\n"
               f"presentation: {c.predicted_presentation.render()}")
    return c.to_json(), summary, 0


def _cmd_crosscheck(cfg: JobConfig) -> tuple:
    M = cfg.require_matrix()
    try:
        report = crosscheck(M, cfg.max_degree)
    except ValueError as e:  # a --max-degree below the relation degree
        raise UsageError(f"--max-degree {cfg.max_degree} is too small: {e}") from e
    lines = [f"case {report.classification.case_label}, dims {report.computed_dims}"]
    for p in report.probes:
        lines.append(f"  [{'ok' if p.ok else 'FALSIFIED'}] {p.name} {p.detail}")
    return report.to_json(), "\n".join(lines), 0 if report.ok else 1


def _cmd_gorenstein(cfg: JobConfig) -> tuple:
    M = cfg.require_matrix()
    try:
        comparison = predicted_vs_certified(M, cfg.hom_bound, cfg.int_bound)
    except ValueError as e:  # an --int-bound below the relation degree
        raise UsageError(f"--int-bound {cfg.int_bound} is too small: {e}") from e
    summary = [comparison.detail, comparison.certificate.table.render()]
    if comparison.certificate.witness:
        for w in comparison.certificate.witness:
            summary.append(f"witness (hom {w.hom_degree}, internal {w.internal_degree}): {w.rendered}")
    return comparison.to_json(), "\n".join(summary), 0 if comparison.consistent else 1


def _cmd_transform(cfg: JobConfig) -> tuple:
    M = cfg.require_matrix()
    if cfg.transform is None:
        raise UsageError("--transform (a 3x3 monomial matrix as JSON) is required")
    try:
        report = invariance_check(M, cfg.transform, cfg.max_degree)
    except ValueError as e:
        raise UsageError(str(e)) from e
    lines = [f"transformed: {report.transformed}",
             f"dims: {report.dims_before} vs {report.dims_after}"]
    lines += [f"FALSIFIED: {f}" for f in report.falsifications]
    return report.to_json(), "\n".join(lines), 0 if report.ok else 1


def _cmd_verify(cfg: JobConfig) -> tuple:
    M = cfg.require_matrix()
    report = verify_dg(DGSpec(cfg.field, M), cfg.max_degree)
    summary = "all differential checks pass" if report.ok else "\n".join(report.failures)
    return {"ok": report.ok, "failures": report.failures}, summary, 0 if report.ok else 1


def _cmd_suite(cfg: JobConfig) -> tuple:
    report = run_suite(cfg.field, numbers=cfg.criteria)
    return report.to_json(), report.render(), 0 if report.all_passed else 1


def _parse_criteria(text):
    """--criteria "1,5,7" as a set of criterion numbers; None runs them all."""
    pieces = [p.strip() for p in text.split(",")] if text else []
    if not all(p.isdecimal() and 1 <= int(p) <= len(CRITERIA) for p in pieces):
        raise UsageError(f"--criteria takes numbers 1..{len(CRITERIA)}, got {text!r}")
    return {int(p) for p in pieces} or None


# every option a subcommand may take, by its dest (the flag is --dest with
# dashes), in --help order
OPTIONS = {
    "matrix": {"help": "3x3 JSON array; entries int or 'p/q'"},
    "field": {"help": f"Q (default) or Fp:<prime>; env {FIELD_ENV_VAR} sets the default"},
    "max_degree": {"type": int},
    "hom_bound": {"type": int},
    "int_bound": {"type": int},
    "config": {"help": "JSON file with default options"},
    "out": {"help": "write the JSON report here"},
    "transform": {"help": "3x3 monomial matrix as JSON"},
    "criteria": {"help": "comma-separated criterion numbers, e.g. 1,5,7"},
}

SHARED_OPTIONS = ("field", "config", "out")


@dataclass(frozen=True)
class Subcommand:
    name: str
    help: str
    handler: Callable  # handler(cfg) -> (JSON payload, text summary, exit status)
    options: tuple  # read by the handler, beyond SHARED_OPTIONS


SUBCOMMANDS = (
    Subcommand("cohomology", "degreewise dims and bases", _cmd_cohomology,
               ("matrix", "max_degree")),
    Subcommand("classify", "case, presentation, verdict", _cmd_classify, ("matrix",)),
    Subcommand("crosscheck", "full prediction verification", _cmd_crosscheck,
               ("matrix", "max_degree")),
    Subcommand("gorenstein", "certificate pipeline", _cmd_gorenstein,
               ("matrix", "hom_bound", "int_bound")),
    Subcommand("verify-dg", "differential validity checks", _cmd_verify,
               ("matrix", "max_degree")),
    Subcommand("transform", "apply the monomial action and check invariance",
               _cmd_transform, ("matrix", "max_degree", "transform")),
    Subcommand("paper-suite", "run every acceptance criterion", _cmd_suite, ("criteria",)),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line on stderr, like every other usage error
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dgskew",
        description="Exact cohomology, classification and Gorenstein "
                    "certificates for matrix differentials on the "
                    "three-variable skew polynomial algebra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in SUBCOMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        p.set_defaults(handler=command.handler)
        for name, kwargs in OPTIONS.items():
            if name in command.options or name in SHARED_OPTIONS:
                p.add_argument("--" + name.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _build_config(args)
        payload, summary, status = args.handler(cfg)
        _emit(cfg, payload, summary)
        return status
    except SystemExit as e:  # --help
        return e.code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BoundInsufficientError as e:
        print(f"error: {e} (raise --int-bound)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
