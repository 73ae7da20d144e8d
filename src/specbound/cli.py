"""Command-line front end: domain spec in, certified report out.

Subcommands
    lambda1      refinement study and extrapolated first eigenvalue
    certify      full pipeline with per-bound PASS/FAIL lines
    bessel-zeros table of the sharp constants j_{n/2-1,1} and 2*j
    sweep        shape families to plot-ready CSV
    dump-spec    normalize and re-emit a domain spec

Exit codes: 0 success, 1 certified bound violated, 2 input error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from ._format import csv_text, format_float, to_json
from .convergence import ConvergenceStudy, refine
from .discretize import GridError
from .eigensolve import SolverConvergenceError
from .geometry import (
    Box,
    Domain,
    DomainError,
    Ellipse,
    RasterMask,
    domain_from_spec,
)
from .specfun import first_zero
from .uncertainty import PhysicalConstants, UncertaintyReport, certify_bounds

__all__ = ["RunConfig", "main", "certify_pipeline"]

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the pipeline subcommands."""

    domain_spec: str | None
    h_start: float = 0.125
    levels: int = 4
    tol: float = 1e-10
    hbar: float = 1.0
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        if self.levels < 3:
            raise DomainError(f"levels must be >= 3, got {self.levels}")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if not self.hbar > 0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")
        if self.output_format not in ("json", "csv"):
            raise DomainError(f"format must be json or csv, got {self.output_format}")


def _load_domain(text: str) -> Domain:
    if text is None:
        raise DomainError("missing --domain (inline JSON or a path to a JSON file)")
    candidate = text.strip()
    if not candidate.startswith("{"):
        path = Path(candidate)
        if not path.exists():
            raise DomainError(f"domain spec file not found: {candidate}")
        candidate = path.read_text(encoding="utf-8")
    try:
        spec = json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid domain JSON near position {exc.pos}: {exc.msg}") from None
    return domain_from_spec(spec)


def _write_artifact(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _message_stream(out_path: str | None):
    # keep human-readable lines out of artifacts written to stdout
    return sys.stdout if out_path is not None else sys.stderr


def _warn_mask_hypothesis(domain: Domain, stream):
    if isinstance(domain, RasterMask) and domain.has_holes():
        print(
            "note: mask has interior holes (multiply connected); the sharp "
            "constants still bound it but equality cases do not apply",
            file=stream,
        )


def certify_pipeline(
    domain: Domain,
    h_start: float,
    levels: int,
    tol: float,
    hbar: float = 1.0,
) -> tuple[ConvergenceStudy, UncertaintyReport]:
    """Grid refinement, extrapolation and bound certification in one call."""
    study = refine(domain, h_start, levels, tol)
    spectrum = study.finest_spectrum
    field = spectrum.wavefield(study.finest_grid, 0)
    report = certify_bounds(
        domain,
        study.extrapolated,
        study.error_estimate,
        field,
        PhysicalConstants(hbar),
        matrix=study.finest_matrix,
        lambda1_discrete=float(spectrum.eigenvalues[0]),
    )
    return study, report


def _study_json(domain: Domain, cfg: RunConfig, study: ConvergenceStudy) -> dict:
    return {
        "domain": domain.to_spec(),
        "h_start": cfg.h_start,
        "levels": cfg.levels,
        "tol": cfg.tol,
        "spacings": list(study.spacings),
        "lambda1_values": list(study.lambda1_values),
        "observed_order": study.observed_order,
        "lambda1": study.extrapolated,
        "lambda1_error": study.error_estimate,
        "monotone": study.monotone,
    }


def _cmd_lambda1(args) -> int:
    cfg = _config(args)
    domain = _load_domain(cfg.domain_spec)
    stream = _message_stream(cfg.output_path)
    _warn_mask_hypothesis(domain, stream)
    study = refine(domain, cfg.h_start, cfg.levels, cfg.tol)
    if cfg.output_format == "csv":
        _write_artifact(study.to_csv(), cfg.output_path)
    else:
        _write_artifact(to_json(_study_json(domain, cfg, study)) + "\n", cfg.output_path)
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
    cfg = _config(args)
    domain = _load_domain(cfg.domain_spec)
    stream = _message_stream(cfg.output_path)
    _warn_mask_hypothesis(domain, stream)
    study, report = certify_pipeline(
        domain, cfg.h_start, cfg.levels, cfg.tol, hbar=cfg.hbar
    )
    if cfg.output_format == "csv":
        _write_artifact(report.to_csv(), cfg.output_path)
    else:
        _write_artifact(report.to_json(), cfg.output_path)
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


def _bessel_rows() -> list:
    rows = []
    for n in (1, 2, 3):
        zero = first_zero(n / 2.0 - 1.0)
        rows.append(
            {
                "n": n,
                "order": zero.order,
                "zero": zero.value,
                "two_zero": 2.0 * zero.value,
                "residual": zero.residual,
            }
        )
    return rows


def _cmd_bessel_zeros(args) -> int:
    rows = _bessel_rows()
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


def _sweep_shapes(args) -> list:
    if args.family == "rectangle-aspect":
        values = _parse_values(args.values, default=(1.0, 1.5, 2.0, 4.0))
        return [(a, Box([[0.0, a], [0.0, 1.0]])) for a in sorted(values)]
    if args.family == "ellipse-aspect":
        values = _parse_values(args.values, default=(1.0, 1.5, 2.0))
        shapes = []
        for a in sorted(values):
            s = a**0.5
            shapes.append((a, Ellipse([0.0, 0.0], [s, 1.0 / s])))
        return shapes
    # mask-batch
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
    return values


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    rows = []
    for param, shape in _sweep_shapes(args):
        row = {"family": args.family, "param": param}
        try:
            if isinstance(shape, Exception):  # a mask file that did not load
                raise shape
            study, report = certify_pipeline(
                shape, cfg.h_start, cfg.levels, cfg.tol, hbar=cfg.hbar
            )
            cells = report.csv_cells()
            row.update(cells, kind=cells["domain_kind"], status="ok")
            row["observed_order"] = study.observed_order
        except (DomainError, GridError, ValueError, SolverConvergenceError) as exc:
            safe = str(exc).replace(",", ";").replace("\n", " ")
            row["status"] = f"error: {safe}"
        rows.append(row)
    _write_artifact(csv_text(_SWEEP_COLUMNS, rows), cfg.output_path)
    return EXIT_OK


def _cmd_dump_spec(args) -> int:
    domain = _load_domain(args.domain)
    _write_artifact(to_json(domain.to_spec()) + "\n", args.out)
    return EXIT_OK


def _config(args) -> RunConfig:
    return RunConfig(
        domain_spec=getattr(args, "domain", None),
        h_start=args.h_start,
        levels=args.levels,
        tol=args.tol,
        hbar=args.hbar,
        output_format=args.format,
        output_path=args.out,
    )


def _add_pipeline_flags(sub, with_domain=True):
    if with_domain:
        sub.add_argument("--domain", required=True, help="inline JSON or path to a spec file")
    sub.add_argument("--h-start", dest="h_start", type=float, default=0.125)
    sub.add_argument("--levels", type=int, default=4)
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--hbar", type=float, default=1.0)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="artifact path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbound",
        description="First Dirichlet eigenvalues and the momentum-spread "
        "bounds they certify.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lam = commands.add_parser("lambda1", help="refinement study for lambda1")
    _add_pipeline_flags(lam)
    lam.set_defaults(handler=_cmd_lambda1)

    cert = commands.add_parser("certify", help="certify all bounds for a domain")
    _add_pipeline_flags(cert)
    cert.set_defaults(handler=_cmd_certify)

    bz = commands.add_parser("bessel-zeros", help="sharp constants table")
    bz.add_argument("--format", choices=("json", "csv"), default="json")
    bz.add_argument("--out", default=None)
    bz.set_defaults(handler=_cmd_bessel_zeros)

    sweep = commands.add_parser("sweep", help="run a shape family to CSV")
    sweep.add_argument(
        "--family",
        required=True,
        choices=("rectangle-aspect", "ellipse-aspect", "mask-batch"),
    )
    sweep.add_argument("--values", default=None, help="comma-separated family parameters")
    sweep.add_argument("--mask-dir", dest="mask_dir", default=None)
    _add_pipeline_flags(sweep, with_domain=False)
    sweep.set_defaults(handler=_cmd_sweep)

    dump = commands.add_parser("dump-spec", help="normalize a domain spec")
    dump.add_argument("--domain", required=True)
    dump.add_argument("--out", default=None)
    dump.set_defaults(handler=_cmd_dump_spec)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
