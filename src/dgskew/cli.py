"""Command-line front end.

Each option is declared once, in `OPTIONS`, and each subcommand once, in
`SUBCOMMANDS`: its name, help text, handler, the options its handler reads
and the one that bounds its degrees, named when that bound is too small;
every subcommand also takes --field, --config and --out.  Structured output
is JSON (rationals as "p/q" strings, fixed orderings, byte-identical across
runs); a text summary goes to stdout.
Exit status: 0 success/pass, 1 falsification, 2 usage error, whether or not
stdout and stderr are open; 141 (128 + SIGPIPE) when stdout is closed before
the summary of a run that would exit 0 is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable

from .classify import classify, crosscheck, predicted_vs_certified
from .cohomology import cohomology
from .dg import DGSpec, verify_dg
from .errors import BoundInsufficientError
from .fields import Frozen, field_from_name, parse_natural
from .linalg import Matrix
from .suite import CRITERIA, run_suite
from .transform import invariance_check, validate_monomial

FIELD_ENV_VAR = "DGSKEW_FIELD"


class UsageError(ValueError):
    pass


class Option(Frozen):
    """--help text; the type of a value read as it is (None when parsed
    later or never read from a config file); an int's default and minimum."""

    def __init__(self, help: str | None = None, type: type | None = None,
                 default: int | None = None, low: int | None = None):
        vars(self).update(help=help, type=type, default=default, low=low)


# every option a subcommand may take, by its dest (the flag is --dest with
# dashes), in --help order
OPTIONS = {
    "matrix": Option("3x3 JSON array; entries int or 'p/q'"),
    "field": Option(f"Q (default) or Fp:<prime>; env {FIELD_ENV_VAR} sets the default", str),
    "max_degree": Option(type=int, default=8, low=2),
    "hom_bound": Option(type=int, default=6, low=1),
    "int_bound": Option(type=int, default=10, low=0),
    "config": Option("JSON file with default options"),
    "out": Option("write the JSON report here", str),
    "transform": Option("3x3 monomial matrix as JSON"),
    "criteria": Option("comma-separated criterion numbers, e.g. 1,5,7"),
}


def _source(name: str, from_config) -> str:
    """An option as the user set it: its config key when the config file
    set it, else its flag."""
    return f"config {name}" if name in from_config else "--" + name.replace("_", "-")


class JobConfig:
    def __init__(self, field, matrix: Matrix | None, max_degree: int, hom_bound: int,
                 int_bound: int, transform: Matrix | None, out: str | None, criteria: set | None,
                 from_config: frozenset):
        self.field = field
        self.matrix = matrix
        self.max_degree = max_degree
        self.hom_bound = hom_bound
        self.int_bound = int_bound
        self.transform = transform
        self.out = out
        self.criteria = criteria  # paper-suite's --criteria; None runs them all
        self.from_config = from_config  # the options the config file set


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
        # coerce takes an int or a scalar string and refuses anything else
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
        except (OSError, ValueError) as e:  # unreadable, not UTF-8, or not JSON
            raise UsageError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(raw, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        for name, opt in OPTIONS.items():
            # type(), not isinstance(): a JSON true is not the integer 1
            if opt.type and name in raw and type(raw[name]) is not opt.type:
                raise UsageError(f"config {name} must be "
                                 f"{'an integer' if opt.type is int else 'a string'}, "
                                 f"got {raw[name]!r}")
    from_config = frozenset(name for name in raw if getattr(args, name, None) is None)

    sources = (("--field", args.field), ("config field", raw.get("field")),
               (FIELD_ENV_VAR, os.environ.get(FIELD_ENV_VAR)))
    source, field_name = next(((s, v) for s, v in sources if v), ("", "Q"))
    try:
        field = field_from_name(field_name)
    except ValueError as e:
        raise UsageError(f"{source}: {e}") from e

    def pick(name, default=None):
        v = getattr(args, name, None)
        return raw.get(name, default) if v is None else v

    bounds = {name: pick(name, opt.default) for name, opt in OPTIONS.items() if opt.low is not None}
    for name, value in bounds.items():
        if value < OPTIONS[name].low:
            raise UsageError(f"{_source(name, from_config)} must be >= {OPTIONS[name].low}")

    matrices = {}
    for name in ("matrix", "transform"):  # each subcommand that reads one requires it
        data = pick(name)
        if data is None and name in args.subcommand.options:
            raise UsageError(f"--{name} (or config {name}) is required")
        matrices[name] = None if data is None else _parse_matrix(field, data)
    if matrices["transform"] is not None:
        try:
            validate_monomial(matrices["transform"])
        except ValueError as e:
            raise UsageError(f"{_source('transform', from_config)} is {e}") from e
    return JobConfig(field, out=args.out or raw.get("out"),
                     criteria=_parse_criteria(getattr(args, "criteria", None)),
                     from_config=from_config, **matrices, **bounds)


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
    report = cohomology(DGSpec(cfg.field, cfg.matrix), cfg.max_degree)
    return report.to_json(), f"dims: {report.dims}", 0


def _cmd_classify(cfg: JobConfig) -> tuple:
    c = classify(cfg.matrix)
    summary = (f"rank {c.rank}, case {c.case_label}, verdict {c.predicted_gorenstein}\n"
               f"presentation: {c.predicted_presentation.render()}")
    return c.to_json(), summary, 0


def _cmd_crosscheck(cfg: JobConfig) -> tuple:
    report = crosscheck(cfg.matrix, cfg.max_degree)
    lines = [f"case {report.classification.case_label}, dims {report.computed_dims}"]
    for p in report.probes:
        lines.append(f"  [{'ok' if p.ok else 'FALSIFIED'}] {p.name} {p.detail}")
    return report.to_json(), "\n".join(lines), 0 if report.ok else 1


def _cmd_gorenstein(cfg: JobConfig) -> tuple:
    comparison = predicted_vs_certified(cfg.matrix, cfg.hom_bound, cfg.int_bound)
    summary = [comparison.detail, comparison.certificate.table.render()]
    if comparison.certificate.witness:
        for w in comparison.certificate.witness:
            summary.append(f"witness (hom {w.hom_degree}, internal {w.internal_degree}): {w.rendered}")
    return comparison.to_json(), "\n".join(summary), 0 if comparison.consistent else 1


def _cmd_transform(cfg: JobConfig) -> tuple:
    report = invariance_check(cfg.matrix, cfg.transform, cfg.max_degree)
    lines = [f"transformed: {report.transformed}",
             f"dims: {report.dims_before} vs {report.dims_after}"]
    lines += [f"FALSIFIED: {f}" for f in report.falsifications]
    return report.to_json(), "\n".join(lines), 0 if report.ok else 1


def _cmd_verify(cfg: JobConfig) -> tuple:
    report = verify_dg(DGSpec(cfg.field, cfg.matrix), cfg.max_degree)
    summary = "all differential checks pass" if report.ok else "\n".join(report.failures)
    return {"ok": report.ok, "failures": report.failures}, summary, 0 if report.ok else 1


def _cmd_suite(cfg: JobConfig) -> tuple:
    report = run_suite(cfg.field, numbers=cfg.criteria)
    return report.to_json(), report.render(), 0 if report.all_passed else 1


def _parse_criteria(text):
    """--criteria "1,5,7" as a set of criterion numbers; None runs them all."""
    pieces = [p.strip() for p in text.split(",")] if text else []
    try:
        numbers = {parse_natural(p, "a criterion") for p in pieces}
        if all(1 <= n <= len(CRITERIA) for n in numbers):
            return numbers or None
    except ValueError:
        pass
    raise UsageError(f"--criteria takes numbers 1..{len(CRITERIA)}, got {text!r}")


SHARED_OPTIONS = ("field", "config", "out")


class Subcommand(Frozen):
    """handler(cfg) -> (JSON payload, text summary, exit status); options,
    the ones the handler reads beyond SHARED_OPTIONS; bound, the option
    that bounds the computation's degrees."""

    def __init__(self, name: str, help: str, handler: Callable, options: tuple,
                 bound: str | None = None):
        vars(self).update(name=name, help=help, handler=handler, options=options, bound=bound)


SUBCOMMANDS = (
    Subcommand("cohomology", "degreewise dims and bases", _cmd_cohomology,
               ("matrix", "max_degree"), "max_degree"),
    Subcommand("classify", "case, presentation, verdict", _cmd_classify, ("matrix",)),
    Subcommand("crosscheck", "full prediction verification", _cmd_crosscheck,
               ("matrix", "max_degree"), "max_degree"),
    Subcommand("gorenstein", "certificate pipeline", _cmd_gorenstein,
               ("matrix", "hom_bound", "int_bound"), "int_bound"),
    Subcommand("verify-dg", "differential validity checks", _cmd_verify,
               ("matrix", "max_degree"), "max_degree"),
    Subcommand("transform", "apply the monomial action and check invariance",
               _cmd_transform, ("matrix", "max_degree", "transform"), "max_degree"),
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
        p.set_defaults(subcommand=command)
        for name, opt in OPTIONS.items():
            if name in command.options or name in SHARED_OPTIONS:
                p.add_argument("--" + name.replace("_", "-"), type=opt.type, help=opt.help)
    return parser


def _silence(stream):
    """Point a stream whose reader went away at devnull, so that the flush
    at exit stays quiet too."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    status = 0  # the run's status, decided before anything is written
    try:
        args = build_parser().parse_args(argv)
        cfg = _build_config(args)
        try:
            payload, summary, status = args.subcommand.handler(cfg)
        except BoundInsufficientError as e:
            bound = args.subcommand.bound
            if bound is None:
                raise
            raise UsageError(f"{_source(bound, cfg.from_config)} {getattr(cfg, bound)} "
                             f"is too small: {e}") from e
        _emit(cfg, payload, summary)
        return status
    except SystemExit as e:  # --help
        return e.code
    except UsageError as e:
        try:
            print(f"error: {e}", file=sys.stderr)
        except BrokenPipeError:
            _silence(sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout is closed: no traceback, and only a 0 turns into 141
        _silence(sys.stdout)
        return status or 141


if __name__ == "__main__":
    sys.exit(main())
