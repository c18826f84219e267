"""Command-line front end.

Subcommands: cohomology, classify, crosscheck, gorenstein, transform,
paper-suite.  Structured output is JSON (rationals as "p/q" strings, fixed
orderings, byte-identical across runs); a text summary goes to stdout.
Exit status: 0 success/pass, 1 falsification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .classify import classify, crosscheck
from .cohomology import cohomology
from .dg import DGSpec, verify_dg
from .errors import BoundInsufficientError
from .fields import field_from_name, parse_scalar
from .linalg import Matrix
from .resolution import predicted_vs_certified
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

    matrix_data, transform_data = pick("matrix"), pick("transform")
    cfg = JobConfig(field,
                    None if matrix_data is None else _parse_matrix(field, matrix_data),
                    max_degree=pick("max_degree", 8),
                    hom_bound=pick("hom_bound", 6),
                    int_bound=pick("int_bound", 10),
                    transform=(None if transform_data is None
                               else _parse_matrix(field, transform_data)),
                    out=args.out or raw.get("out"))
    if cfg.max_degree < 2:
        raise UsageError("--max-degree must be >= 2")
    if cfg.hom_bound < 1:
        raise UsageError("--hom-bound must be >= 1")
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


def _cmd_cohomology(cfg: JobConfig) -> int:
    M = cfg.require_matrix()
    report = cohomology(DGSpec(cfg.field, M), cfg.max_degree)
    _emit(cfg, report.to_json(), f"dims: {report.dims}")
    return 0


def _cmd_classify(cfg: JobConfig) -> int:
    M = cfg.require_matrix()
    c = classify(M)
    _emit(cfg, c.to_json(),
          f"rank {c.rank}, case {c.case_label}, verdict {c.predicted_gorenstein}\n"
          f"presentation: {c.predicted_presentation.render()}")
    return 0


def _cmd_crosscheck(cfg: JobConfig) -> int:
    M = cfg.require_matrix()
    report = crosscheck(M, cfg.max_degree)
    lines = [f"case {report.classification.case_label}, dims {report.computed_dims}"]
    for p in report.probes:
        lines.append(f"  [{'ok' if p.ok else 'FALSIFIED'}] {p.name} {p.detail}")
    _emit(cfg, report.to_json(), "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_gorenstein(cfg: JobConfig) -> int:
    M = cfg.require_matrix()
    try:
        comparison = predicted_vs_certified(M, cfg.hom_bound, cfg.int_bound)
    except ValueError as e:  # e.g. an --int-bound below the relation degree
        raise UsageError(str(e)) from e
    summary = [comparison.detail, comparison.certificate.table.render()]
    if comparison.certificate.witness:
        for w in comparison.certificate.witness:
            summary.append(f"witness (hom {w.hom_degree}, internal {w.internal_degree}): {w.rendered}")
    _emit(cfg, comparison.to_json(), "\n".join(summary))
    return 0 if comparison.consistent else 1


def _cmd_transform(cfg: JobConfig) -> int:
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
    _emit(cfg, report.to_json(), "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_verify(cfg: JobConfig) -> int:
    M = cfg.require_matrix()
    report = verify_dg(DGSpec(cfg.field, M), cfg.max_degree)
    payload = {"ok": report.ok, "failures": report.failures}
    _emit(cfg, payload, "all differential checks pass" if report.ok
          else "\n".join(report.failures))
    return 0 if report.ok else 1


def _cmd_suite(cfg: JobConfig, numbers) -> int:
    report = run_suite(cfg.field, numbers=numbers)
    _emit(cfg, report.to_json(), report.render())
    return 0 if report.all_passed else 1


def _parse_criteria(text):
    """--criteria "1,5,7" as a set of criterion numbers; None runs them all."""
    pieces = [p.strip() for p in text.split(",")] if text else []
    if not all(p.isdecimal() and 1 <= int(p) <= len(CRITERIA) for p in pieces):
        raise UsageError(f"--criteria takes numbers 1..{len(CRITERIA)}, got {text!r}")
    return {int(p) for p in pieces} or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgskew",
        description="Exact cohomology, classification and Gorenstein "
                    "certificates for matrix differentials on the "
                    "three-variable skew polynomial algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=True):
        if matrix:
            p.add_argument("--matrix", help="3x3 JSON array; entries int or 'p/q'")
        p.add_argument("--field", help="Q (default) or Fp:<prime>; "
                                       f"env {FIELD_ENV_VAR} sets the default")
        p.add_argument("--max-degree", dest="max_degree", type=int)
        p.add_argument("--hom-bound", dest="hom_bound", type=int)
        p.add_argument("--int-bound", dest="int_bound", type=int)
        p.add_argument("--config", help="JSON file with default options")
        p.add_argument("--out", help="write the JSON report here")

    common(sub.add_parser("cohomology", help="degreewise dims and bases"))
    common(sub.add_parser("classify", help="case, presentation, verdict"))
    common(sub.add_parser("crosscheck", help="full prediction verification"))
    common(sub.add_parser("gorenstein", help="certificate pipeline"))
    common(sub.add_parser("verify-dg", help="differential validity checks"))
    t = sub.add_parser("transform", help="apply the monomial action and check invariance")
    common(t)
    t.add_argument("--transform", help="3x3 monomial matrix as JSON")
    s = sub.add_parser("paper-suite", help="run every acceptance criterion")
    common(s, matrix=False)
    s.add_argument("--criteria", help="comma-separated criterion numbers, e.g. 1,5,7")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _build_config(args)
        if args.command == "cohomology":
            return _cmd_cohomology(cfg)
        if args.command == "classify":
            return _cmd_classify(cfg)
        if args.command == "crosscheck":
            return _cmd_crosscheck(cfg)
        if args.command == "gorenstein":
            return _cmd_gorenstein(cfg)
        if args.command == "verify-dg":
            return _cmd_verify(cfg)
        if args.command == "transform":
            return _cmd_transform(cfg)
        if args.command == "paper-suite":
            return _cmd_suite(cfg, _parse_criteria(args.criteria))
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BoundInsufficientError as e:
        print(f"error: {e} (raise --int-bound)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
