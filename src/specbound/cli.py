"""Command-line front end: domain spec in, certified report out.

Subcommands
    lambda1      refinement study and extrapolated first eigenvalue
    certify      full pipeline with per-bound PASS/FAIL lines
    bessel-zeros the sharp constants j_{n/2-1,1} and 2*j, as tabulated
    sweep        shape families to plot-ready CSV
    dump-spec    normalize and re-emit a domain spec

Exit codes: 0 success, 1 certified bound violated, 2 input error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from ._format import csv_text, format_float, to_json
from .convergence import refine
from .eigensolve import DEFAULT_TOL, SolverConvergenceError
from .geometry import (
    Box,
    Domain,
    DomainError,
    Ellipse,
    RasterMask,
    domain_from_spec,
)
from .uncertainty import certify_bounds, first_zero

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


def _check_pipeline_flags(args):
    # the checks that argparse's types and choices do not make
    if args.levels < 3:
        raise DomainError(f"levels must be >= 3, got {args.levels}")
    # a relative residual of 1 or more places lambda anywhere in
    # [0, 2 theta], so it certifies nothing
    if not 0 < args.tol < 1:
        raise DomainError(f"tol must be in (0, 1), got {args.tol}")
    # lambda1 takes no --hbar
    if "hbar" in args and not 0 < args.hbar < math.inf:
        raise DomainError(f"hbar must be positive and finite, got {args.hbar}")


def _load_domain(text: str) -> Domain:
    candidate = text.strip()
    if not candidate.startswith("{"):
        path = Path(candidate)
        if not path.exists():
            raise DomainError(f"domain spec file not found: {candidate}")
        try:
            candidate = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot read domain spec file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise DomainError(f"domain spec file {path} is not UTF-8: {exc.reason}") from None
    try:
        spec = json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid domain JSON near position {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise DomainError("invalid domain JSON: nested too deeply to parse") from None
    return domain_from_spec(spec)


def _write_artifact(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _message_stream(out_path: str | None):
    # keep human-readable lines out of artifacts written to stdout
    return sys.stdout if out_path is not None else sys.stderr


def _study(args):
    """The start of lambda1 and certify: the refinement study of --domain,
    and the stream for messages."""
    _check_pipeline_flags(args)
    domain = _load_domain(args.domain)
    stream = _message_stream(args.out)
    if isinstance(domain, RasterMask) and domain.has_holes():
        print(
            "note: mask has interior holes (multiply connected); the sharp "
            "constants still bound it but equality cases do not apply",
            file=stream,
        )
    return refine(domain, args.h_start, args.levels, args.tol), stream


def _write_report(artifact, args):
    # a study or an uncertainty report lays out its own artifact
    _write_artifact(artifact.to_csv() if args.format == "csv" else artifact.to_json(), args.out)


def _cmd_lambda1(args) -> int:
    study, stream = _study(args)
    _write_report(study, args)
    if not study.monotone:
        print("note: lambda1 sequence is not monotone across levels", file=stream)
    print(
        f"lambda1 = {format_float(study.extrapolated)} "
        f"+/- {format_float(study.error_estimate)} "
        f"(observed order {study.observed_order:.2f})",
        file=stream,
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    study, stream = _study(args)
    report = certify_bounds(study, args.hbar)
    _write_report(report, args)
    for c in report.checks():
        status = "PASS" if c.passed else "FAIL"
        flag = " [equality]" if c.equality else ""
        print(
            f"{c.label:<17}{c.statement:<28}  {status}  "
            f"{c.quantity}={format_float(c.value)}{flag}",
            file=stream,
        )
    violations = report.violations()
    if violations:
        print("certification FAILED: " + "; ".join(violations), file=stream)
        return EXIT_BOUND_VIOLATION
    print("certification PASSED", file=stream)
    return EXIT_OK


def _cmd_bessel_zeros(args) -> int:
    rows = []
    for n in (1, 2, 3):
        order = n / 2.0 - 1.0
        zero = first_zero(order)
        rows.append({"n": n, "order": order, "zero": zero, "two_zero": 2.0 * zero})
    out_path = args.out
    if args.format == "csv":
        _write_artifact(csv_text(rows[0], rows), out_path)
    else:
        _write_artifact(to_json({"rows": rows}) + "\n", out_path)
    stream = _message_stream(out_path)
    for r in rows:
        print(
            f"n={r['n']}  order={r['order']:+.1f}  j={r['zero']:.10f}  "
            f"2j={r['two_zero']:.10f}",
            file=stream,
        )
    return EXIT_OK


_SWEEP_COLUMNS = (
    "family", "param", "kind", "n", "volume", "diameter", "perimeter",
    "lambda1", "lambda1_error", "observed_order", "krahn_ratio",
    "diameter_product", "margin_eq7", "margin_eq10", "margin_kennard", "status",
)


# the sweep families of one aspect ratio a each: default --values, and the
# shape for one value
_ASPECT_FAMILIES = {
    "rectangle-aspect": ((1.0, 1.5, 2.0, 4.0), lambda a: Box([[0.0, a], [0.0, 1.0]])),
    "ellipse-aspect": ((1.0, 1.5, 2.0), lambda a: Ellipse([0.0, 0.0], [a**0.5, 1.0 / a**0.5])),
}


def _sweep_shapes(args) -> list:
    # a flag that the chosen family does not read is an error, not ignored
    if args.family != "mask-batch" and args.mask_dir is not None:
        raise DomainError(f"--mask-dir is read only by family mask-batch, not {args.family}")
    if args.family in _ASPECT_FAMILIES:
        default, shape = _ASPECT_FAMILIES[args.family]
        return [(a, shape(a)) for a in sorted(_parse_values(args.values, default))]
    # mask-batch
    if args.values is not None:
        families = " and ".join(_ASPECT_FAMILIES)
        raise DomainError(f"--values is read only by families {families}, not mask-batch")
    if args.mask_dir is None:
        raise DomainError("family mask-batch requires --mask-dir")
    directory = Path(args.mask_dir)
    if not directory.is_dir():
        raise DomainError(f"--mask-dir is not a directory: {args.mask_dir}")
    shapes = []
    for path in sorted(directory.glob("*.json")):
        try:
            shapes.append((path.stem, _load_domain(str(path))))
        except DomainError as exc:
            shapes.append((path.stem, exc))
    return shapes


def _parse_values(text, default):
    if text is None:
        return default
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise DomainError(f"cannot parse --values list: {text!r}") from None
    if not values:
        raise DomainError("--values is empty")
    for v in values:
        if not 0 < v < math.inf:
            raise DomainError(f"--values must be positive and finite, got {v}")
    return values


def _cmd_sweep(args) -> int:
    _check_pipeline_flags(args)
    rows = []
    for param, shape in _sweep_shapes(args):
        row = {"family": args.family, "param": param}
        try:
            if isinstance(shape, Exception):  # a mask file that did not load
                raise shape
            study = refine(shape, args.h_start, args.levels, args.tol)
            report = certify_bounds(study, args.hbar)
            cells = report.csv_cells()
            row.update(cells, kind=cells["domain_kind"], status="ok")
            row["observed_order"] = study.observed_order
        except (ValueError, SolverConvergenceError) as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)
    _write_artifact(csv_text(_SWEEP_COLUMNS, rows), args.out)
    return EXIT_OK


def _cmd_dump_spec(args) -> int:
    domain = _load_domain(args.domain)
    _write_artifact(to_json(domain.to_spec()) + "\n", args.out)
    return EXIT_OK


_FLAGS = {
    "--domain": dict(required=True, help="inline JSON or path to a spec file"),
    "--h-start": dict(dest="h_start", type=float, default=0.125),
    "--levels": dict(type=int, default=4),
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--hbar": dict(type=float, default=1.0),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None, help="artifact path (default: stdout)"),
}


def _add_flags(sub, *names):
    # each subcommand takes exactly the flags its handler reads
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbound",
        description="First Dirichlet eigenvalues and the momentum-spread "
        "bounds they certify.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    study = ("--h-start", "--levels", "--tol")
    lam = commands.add_parser("lambda1", help="refinement study for lambda1")
    _add_flags(lam, "--domain", *study, "--format", "--out")
    lam.set_defaults(handler=_cmd_lambda1)

    cert = commands.add_parser("certify", help="certify all bounds for a domain")
    _add_flags(cert, "--domain", *study, "--hbar", "--format", "--out")
    cert.set_defaults(handler=_cmd_certify)

    bz = commands.add_parser("bessel-zeros", help="sharp constants table")
    _add_flags(bz, "--format", "--out")
    bz.set_defaults(handler=_cmd_bessel_zeros)

    sweep = commands.add_parser("sweep", help="run a shape family to CSV")
    sweep.add_argument(
        "--family",
        required=True,
        choices=(*_ASPECT_FAMILIES, "mask-batch"),
    )
    sweep.add_argument("--values", default=None, help="comma-separated family parameters")
    sweep.add_argument("--mask-dir", dest="mask_dir", default=None)
    _add_flags(sweep, *study, "--hbar", "--out")
    sweep.set_defaults(handler=_cmd_sweep)

    dump = commands.add_parser("dump-spec", help="normalize a domain spec")
    _add_flags(dump, "--domain", "--out")
    dump.set_defaults(handler=_cmd_dump_spec)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SolverConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
