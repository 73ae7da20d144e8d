"""Capture every CLI artifact of this source tree, and compare two captures.

    python3 tools/snapshot.py OUTDIR
    python3 tools/snapshot.py --compare A B

Runs `specbound.cli.main` in-process on a fixed list of cases covering all
five subcommands, including input errors and solver non-convergence, and
imports `specbound` from the `src/` next to this script.  For each case it
writes `OUTDIR/<case>/stdout`, `stderr` and `exit` (the exit code), plus
`out` when the case writes its artifact to a file.  Every path that a case
passes to the CLI is relative to a scratch working directory, so the
captured text does not depend on where OUTDIR or the checkout lives.

To check that a change leaves every artifact as it was, run the script from
the parent commit's checkout and from the changed one into two directories
and compare them with `diff -r`; it prints nothing when they agree.  A run
takes about 30 s on a 2-core machine.

A change that may move the last digits of a result, such as a different
solver path, is checked with `--compare A B` instead.  It requires the same
cases, identical `exit` files, identical text once every number is masked
(so no PASS/FAIL, `[equality]` flag or true/false field can move), and
every pair of numbers within 1e-8 relative or 1e-12 absolute.  The one
exception is the solver's own account in a non-convergence message
("within N iterations (M matvecs, best R)"), which depends on the path the
solver took.  It prints each offending case and exits 1, or exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from specbound import cli  # noqa: E402

L_VERTICES = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]

# the README's example specs, the disk of its library example and the
# benchmark's reference shapes
SPECS = {
    "interval": {"kind": "interval", "dim": 1, "params": {"a": 0, "b": 1}},
    "box": {"kind": "box", "dim": 2, "params": {"bounds": [[0, 2], [0, 1]]}},
    "ball3": {"kind": "ball", "dim": 3, "params": {"center": [0, 0, 0], "radius": 1}},
    "ellipse": {
        "kind": "ellipse", "dim": 2,
        "params": {"center": [0, 0], "semi_axes": [1, 0.5]},
    },
    "polygon": {"kind": "polygon", "dim": 2, "params": {"vertices": L_VERTICES}},
    "mask": {
        "kind": "raster-mask", "dim": 2,
        "params": {"mask": [[1, 1], [1, 0]], "cell_size": 0.5, "origin": [0, 0]},
    },
    "disk": {"kind": "ball", "dim": 2, "params": {"center": [0, 0], "radius": 1}},
    "cube": {"kind": "box", "dim": 3, "params": {"bounds": [[0, 1], [0, 1], [0, 1]]}},
}

# (spec, h_start) of the benchmark's solve workloads, 4 levels each
REFERENCE = (("disk", "0.0625"), ("polygon", "0.0625"), ("ball3", "0.25"), ("cube", "0.125"))

MASK_FILES = {
    "a-block.json": SPECS["mask"],
    "b-ring.json": {
        "kind": "raster-mask", "dim": 2,
        "params": {"mask": [[1, 1, 1], [1, 0, 1], [1, 1, 1]], "cell_size": 0.25},
    },
    "c-cube.json": {
        "kind": "raster-mask", "dim": 3,
        "params": {"mask": [[[1, 1], [1, 1]], [[1, 1], [1, 0]]], "cell_size": 0.5},
    },
    "d-ragged.json": {
        "kind": "raster-mask", "dim": 2, "params": {"mask": [[1, 1], [1]], "cell_size": 0.5},
    },
    "e-missing.json": {"kind": "raster-mask", "dim": 2, "params": {"cell_size": 0.5}},
}


def _spec(name: str) -> str:
    return json.dumps(SPECS[name])


def cases() -> list:
    """(name, argv, out file or None) for every captured run."""
    # the 3-ball takes 17 s at the default four levels, so only one of its
    # runs uses them
    runs = [("certify-ball3-defaults", ["certify", "--domain", _spec("ball3")], None)]
    for name in ("interval", "box", "ball3", "ellipse", "polygon", "mask", "disk"):
        levels = ["--levels", "3"] if name == "ball3" else []
        for fmt in ("json", "csv"):
            for command in ("certify", "lambda1"):
                argv = [command, "--domain", _spec(name), "--format", fmt] + levels
                runs.append((f"{command}-{name}-{fmt}", argv, None))
        runs.append((f"dump-spec-{name}", ["dump-spec", "--domain", _spec(name)], None))
    for name, h in REFERENCE:
        for fmt in ("json", "csv"):
            argv = ["certify", "--domain", _spec(name), "--h-start", h, "--levels", "4", "--format", fmt]
            runs.append((f"reference-{name}-{fmt}", argv, None))
    runs += [
        ("certify-disk-hbar2", ["certify", "--domain", _spec("disk"), "--hbar", "2"], None),
        ("certify-interval-hbar2-csv", ["certify", "--domain", _spec("interval"), "--hbar", "2", "--format", "csv"], None),
        ("certify-disk-out", ["certify", "--domain", _spec("disk"), "--out", "out"], "out"),
        ("certify-file-domain", ["certify", "--domain", "specs/ellipse.json", "--levels", "3"], None),
        ("certify-mask-holes", ["certify", "--domain", "masks/b-ring.json", "--levels", "3"], None),
        ("lambda1-box-out-csv", ["lambda1", "--domain", _spec("box"), "--format", "csv", "--out", "out"], "out"),
        ("bessel-zeros-json", ["bessel-zeros"], None),
        ("bessel-zeros-csv", ["bessel-zeros", "--format", "csv"], None),
        ("bessel-zeros-out", ["bessel-zeros", "--out", "out"], "out"),
        ("dump-spec-file", ["dump-spec", "--domain", "specs/polygon.json"], None),
        ("dump-spec-out", ["dump-spec", "--domain", _spec("ellipse"), "--out", "out"], "out"),
        ("sweep-rectangle", ["sweep", "--family", "rectangle-aspect"], None),
        ("sweep-ellipse", ["sweep", "--family", "ellipse-aspect"], None),
        ("sweep-rectangle-values-hbar2", ["sweep", "--family", "rectangle-aspect", "--values", "1,3", "--hbar", "2"], None),
        ("sweep-ellipse-values-out", ["sweep", "--family", "ellipse-aspect", "--values", "1,3", "--out", "out"], "out"),
        ("sweep-masks", ["sweep", "--family", "mask-batch", "--mask-dir", "masks", "--levels", "3"], None),
        ("sweep-masks-out", ["sweep", "--family", "mask-batch", "--mask-dir", "masks", "--levels", "3", "--out", "out"], "out"),
        ("sweep-empty-mask-dir", ["sweep", "--family", "mask-batch", "--mask-dir", "empty"], None),
        ("sweep-masks-unreadable", ["sweep", "--family", "mask-batch", "--mask-dir", "unreadable", "--levels", "3"], None),
        ("sweep-solver-failures", ["sweep", "--family", "rectangle-aspect", "--values", "1,2", "--tol", "1e-30"], None),
        # input errors (exit 2) and non-convergence (exit 3)
        ("error-unknown-kind", ["certify", "--domain", '{"kind":"torus","dim":2,"params":{}}'], None),
        ("error-malformed-json", ["lambda1", "--domain", '{"kind":'], None),
        ("error-missing-file", ["lambda1", "--domain", "specs/absent.json"], None),
        ("error-missing-field", ["dump-spec", "--domain", '{"kind":"ball","dim":2,"params":{"center":[0,0]}}'], None),
        ("error-bad-value", ["dump-spec", "--domain", '{"kind":"ball","dim":2,"params":{"center":[0,0],"radius":"1"}}'], None),
        ("error-dim-mismatch", ["dump-spec", "--domain", '{"kind":"interval","dim":2,"params":{"a":0,"b":1}}'], None),
        ("error-levels", ["certify", "--domain", _spec("interval"), "--levels", "2"], None),
        ("error-tol-zero", ["certify", "--domain", _spec("interval"), "--tol", "0"], None),
        ("error-tol-one", ["certify", "--domain", _spec("interval"), "--tol", "1"], None),
        ("error-hbar-inf", ["certify", "--domain", _spec("interval"), "--hbar", "inf"], None),
        ("error-hbar-nan", ["sweep", "--family", "rectangle-aspect", "--hbar", "nan"], None),
        ("error-format", ["certify", "--domain", _spec("interval"), "--format", "xml"], None),
        ("error-no-subcommand", [], None),
        ("error-lattice-cap", ["certify", "--domain", _spec("disk"), "--h-start", "1e-5"], None),
        ("error-many-levels", ["certify", "--domain", _spec("interval"), "--levels", "1100"], None),
        ("error-underflow-spacing", ["lambda1", "--domain", _spec("interval"), "--h-start", "5e-324"], None),
        ("error-coarse-spacing", ["lambda1", "--domain", _spec("interval"), "--h-start", "0.75"], None),
        ("error-sweep-values", ["sweep", "--family", "rectangle-aspect", "--values", "-1"], None),
        ("error-sweep-values-text", ["sweep", "--family", "ellipse-aspect", "--values", "a,b"], None),
        ("error-mask-dir-missing", ["sweep", "--family", "mask-batch"], None),
        ("error-mask-dir-absent", ["sweep", "--family", "mask-batch", "--mask-dir", "absent"], None),
        ("error-bad-polygon", ["dump-spec", "--domain", '{"kind":"polygon","dim":2,"params":{"vertices":[[0,0],[0,1],[1,0]]}}'], None),
        ("error-out-dir-absent", ["bessel-zeros", "--out", "absent/out"], None),
        ("nonconvergence-tol", ["lambda1", "--domain", _spec("disk"), "--tol", "1e-13"], None),
        # a tol far below the disk's roundoff floor, and the default tol
        # below the floor of the unit interval at h = 1/4096
        ("nonconvergence-floor", ["lambda1", "--domain", _spec("disk"), "--h-start", "0.03125", "--levels", "3", "--tol", "1e-14"], None),
        ("nonconvergence-interval-floor", ["lambda1", "--domain", _spec("interval"), "--h-start", "0.000244140625", "--levels", "3"], None),
    ]
    return runs


def _prepare(work: Path):
    (work / "specs").mkdir()
    for name, spec in SPECS.items():
        (work / "specs" / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    (work / "masks").mkdir()
    for name, spec in MASK_FILES.items():
        (work / "masks" / name).write_text(json.dumps(spec), encoding="utf-8")
    (work / "empty").mkdir()
    # one good file, one that is not UTF-8 and a directory named like a spec
    unreadable = work / "unreadable"
    unreadable.mkdir()
    (unreadable / "a-block.json").write_text(json.dumps(SPECS["mask"]), encoding="utf-8")
    (unreadable / "b-undecodable.json").write_bytes(b"\xff\xfe{")
    (unreadable / "c-directory.json").mkdir()


def run_case(argv: list, out_name: str | None, work: Path, dest: Path):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    dest.mkdir(parents=True)
    (dest / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
    (dest / "stderr").write_text(stderr.getvalue(), encoding="utf-8")
    (dest / "exit").write_text(f"{code}\n", encoding="utf-8")
    if out_name is not None and (work / out_name).exists():
        (work / out_name).replace(dest / "out")


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# the solver's account of a failed solve, in stderr and in sweep rows
SOLVER_COUNTS = re.compile(r"within \d+ iterations \(\d+ matvecs[,;] best [^)]*\)")
REL_TOL, ABS_TOL = 1e-8, 1e-12


def _text_drift(a: str, b: str) -> str | None:
    """Why two captured texts disagree, or None when they agree."""
    a, b = (SOLVER_COUNTS.sub("<solver counts>", t) for t in (a, b))
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "text differs once numbers are masked"
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(x), float(y)
        if not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{x!r} against {y!r}"
    return None


def compare(a: Path, b: Path) -> list:
    """(case, problem) for every case of two captures that disagree."""
    cases_a = {p.name for p in a.iterdir() if p.is_dir()}
    cases_b = {p.name for p in b.iterdir() if p.is_dir()}
    problems = [(name, f"only in {a}") for name in sorted(cases_a - cases_b)]
    problems += [(name, f"only in {b}") for name in sorted(cases_b - cases_a)]
    for name in sorted(cases_a & cases_b):
        files = sorted({p.name for p in (a / name).iterdir()} | {p.name for p in (b / name).iterdir()})
        for file in files:
            fa, fb = a / name / file, b / name / file
            if not (fa.exists() and fb.exists()):
                problems.append((name, f"{file} is missing on one side"))
                continue
            ta, tb = fa.read_text(encoding="utf-8"), fb.read_text(encoding="utf-8")
            if file == "exit":
                why = None if ta == tb else "differs"
            else:
                why = _text_drift(ta, tb)
            if why is not None:
                problems.append((name, f"{file}: {why}"))
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        problems = compare(Path(args[1]), Path(args[2]))
        for name, why in problems:
            print(f"{name}: {why}")
        return 1 if problems else 0
    if len(args) != 1:
        print("usage: python3 tools/snapshot.py OUTDIR | --compare A B", file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    if outdir.exists() and any(outdir.iterdir()):
        print(f"error: {outdir} exists and is not empty", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _prepare(work)
        os.chdir(work)
        try:
            for name, argv_case, out_name in cases():
                run_case(argv_case, out_name, work, outdir / name)
        finally:
            os.chdir(home)
    print(f"{len(cases())} cases written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
