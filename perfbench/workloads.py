"""Workloads of the benchmark: seeded inputs, reference values, output checks.

Each workload is a list of operations that the worker hands, one at a time,
to the public CLI entry `specbound.cli.main(argv)` (a closed loop with one
client).  Reference values come from literals and `math`, never from
`specbound`, so a defect in the library cannot move its own yardstick.
The worker imports this module, so it imports nothing the library does not
already load: its peak resident set stays the program's own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("solve-2d", "solve-3d", "mask-sweep")

# first zero of J0, correctly rounded (2.40482555769577276862...); test_smoke.py
# checks it against scipy.special.jn_zeros
J01 = 2.404825557695773
# Betcke & Trefethen 2005, SIAM Review 47(3), for the L-shape of side 2
L_SHAPE_LAMBDA1 = 9.6397238440219
L_VERTICES = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]

# |lambda1 - exact| / exact above this counts as a failed operation; the
# seed's worst reference case (the disk, point omission) sits at 2.4e-3
REL_CHECK = 1e-2
# slack on the enclosing-box and inscribed-ball brackets of blob masks.  A
# blob outside its bracket is counted as a bracket miss, not as a failed
# operation: at the seed the extrapolation on raster boundaries misses for
# a fifth of the blobs (fitted order clamped at 0.05), a known defect that
# the count keeps in view
BRACKET_SLACK = 0.05

SWEEP_COLUMNS = (
    "family,param,kind,n,volume,diameter,perimeter,lambda1,lambda1_error,"
    "observed_order,krahn_ratio,diameter_product,margin_eq7,margin_eq10,"
    "margin_kennard,status"
).split(",")


def _certify(name, spec, h_start, levels, exact):
    return {
        "kind": "certify",
        "name": name,
        "spec": spec,
        "h_start": h_start,
        "levels": levels,
        "exact": exact,
    }


def _solve_cases(workload: str, smoke: bool) -> list:
    if workload == "solve-2d":
        h, levels = (0.125, 4) if smoke else (0.0625, 4)
        return [
            _certify(
                "disk",
                {"kind": "ball", "dim": 2, "params": {"center": [0, 0], "radius": 1}},
                h, levels, J01**2,
            ),
            _certify(
                "l-shape",
                {"kind": "polygon", "dim": 2, "params": {"vertices": L_VERTICES}},
                h, levels, L_SHAPE_LAMBDA1,
            ),
        ]
    ball_h, cube_h, levels = (0.5, 0.25, 3) if smoke else (0.25, 0.125, 4)
    return [
        _certify(
            "ball-3d",
            {"kind": "ball", "dim": 3, "params": {"center": [0, 0, 0], "radius": 1}},
            ball_h, levels, math.pi**2,
        ),
        _certify(
            "cube",
            {"kind": "box", "dim": 3, "params": {"bounds": [[0, 1], [0, 1], [0, 1]]}},
            cube_h, levels, 3 * math.pi**2,
        ),
    ]


# ---------------------------------------------------------------- masks


def _box_lambda(edges) -> float:
    """Dirichlet lambda1 of an axis-aligned box: pi^2 * sum 1/L^2."""
    return math.pi**2 * sum(1.0 / e**2 for e in edges)


def _ball_lambda(radius: float, dim: int) -> float:
    zero = J01 if dim == 2 else math.pi  # j_{n/2-1,1}
    return (zero / radius) ** 2


def _occupied_bbox_edges(cells: set, dim: int, cell: float) -> list:
    return [
        (max(c[a] for c in cells) - min(c[a] for c in cells) + 1) * cell
        for a in range(dim)
    ]


def _inscribed_radius(cells: set, shape, center) -> float:
    """Radius (in cells) of the largest ball about `center` that meets no
    empty cell; the ball then lies in the closed union of occupied cells."""
    best = math.inf
    for idx in _all_cells(shape):
        if idx in cells:
            continue
        # distance from center to the nearest point of cell [idx, idx + 1]
        d2 = sum(max(i - c, 0.0, c - (i + 1)) ** 2 for i, c in zip(idx, center))
        best = min(best, d2)
    # cells outside the array are empty too
    for a, c in enumerate(center):
        best = min(best, c**2, (shape[a] - c) ** 2)
    return math.sqrt(best)


def _all_cells(shape):
    if len(shape) == 2:
        return ((i, j) for i in range(shape[0]) for j in range(shape[1]))
    return (
        (i, j, k)
        for i in range(shape[0])
        for j in range(shape[1])
        for k in range(shape[2])
    )


def _to_array(cells: set, shape) -> list:
    if len(shape) == 2:
        return [[int((i, j) in cells) for j in range(shape[1])] for i in range(shape[0])]
    return [
        [[int((i, j, k) in cells) for k in range(shape[2])] for j in range(shape[1])]
        for i in range(shape[0])
    ]


def _blob_2d(rng: random.Random, r0: float, hole: bool) -> tuple:
    """Star-shaped blob in a 64x64 array: r(t) = r0 (1 + sum a_k cos(k t + p_k)).

    The seed draws the centre offset and the phases; the amplitudes are
    fixed, so blobs of one size class have about the same area and
    perimeter.  A hole is a disc about the centre.  Returns the occupied
    cell set and the centre, in cell units.
    """
    size = 64
    cx = size / 2 + rng.uniform(-1.5, 1.5)
    cy = size / 2 + rng.uniform(-1.5, 1.5)
    harmonics = [(k, 0.08 / k, rng.uniform(0, 2 * math.pi)) for k in (2, 3, 4)]
    r_hole = 0.2 * r0 if hole else 0.0
    cells = set()
    for i in range(size):
        for j in range(size):
            dx, dy = i + 0.5 - cx, j + 0.5 - cy
            r = math.hypot(dx, dy)
            t = math.atan2(dy, dx)
            edge = r0 * (1.0 + sum(a * math.cos(k * t + p) for k, a, p in harmonics))
            if r_hole <= r <= edge:
                cells.add((i, j))
    return cells, (cx, cy)


def _ellipsoid_3d(rng: random.Random, scale: float) -> tuple:
    """Ellipsoid in a 16^3 array with semi-axes scale * (1.12, 1, 0.88) in an
    order and about a centre offset that the seed draws."""
    size = 16
    center = tuple(size / 2 + rng.uniform(-0.5, 0.5) for _ in range(3))
    semi = [scale * f for f in (1.12, 1.0, 0.88)]
    rng.shuffle(semi)
    cells = set()
    for idx in _all_cells((size,) * 3):
        q = sum(((i + 0.5 - c) / s) ** 2 for i, c, s in zip(idx, center, semi))
        if q <= 1.0:
            cells.add(idx)
    return cells, center


def make_masks(seed: int, directory: Path, smoke: bool = False) -> dict:
    """Write the mask-batch inputs for `seed` into `directory`.

    About three quarters are 2-D 64x64 blobs at cell size 1/64 (a quarter
    of those with an enclosed hole) and a quarter 3-D 16^3 ellipsoids at
    cell size 1/16, plus two solid lattice-aligned rectangles whose lambda1
    is known in closed form.  Sizes and the file order are fixed and the
    seed draws positions, phases and axis orders, so the total work and
    the sequence of allocations, and with them the end-to-end figures,
    vary little from seed to seed.

    Returns {file stem: check record} for `check_sweep`.
    """
    rng = random.Random(seed)
    n_blobs, n_ellipsoids = (4, 1) if smoke else (22, 8)
    shapes = []  # (cells, shape, cell size, inscribed-ball centre, sentinel edges)
    for i in range(n_blobs):
        r0 = 13.0 + 13.0 * (i + 0.5) / n_blobs
        hole = i % 4 == 3
        cells, center = _blob_2d(rng, r0, hole)
        shapes.append((cells, (64, 64), 1 / 64, None if hole else center, None))
    for i in range(n_ellipsoids):
        scale = 4.5 + 2.5 * (i + 0.5) / n_ellipsoids
        cells, center = _ellipsoid_3d(rng, scale)
        shapes.append((cells, (16, 16, 16), 1 / 16, center, None))
    for na, nb in ((64, 32), (48, 40)):
        cells = {(i, j) for i in range(na) for j in range(nb)}
        shapes.append((cells, (na, nb), 1 / 64, None, (na / 64, nb / 64)))
    directory.mkdir(parents=True, exist_ok=True)
    checks = {}
    for slot, (cells, shape, cell, center, edges) in enumerate(shapes):
        dim = len(shape)
        stem = f"m{slot:02d}"
        spec = {
            "kind": "raster-mask",
            "dim": dim,
            "params": {"mask": _to_array(cells, shape), "cell_size": cell, "origin": [0.0] * dim},
        }
        (directory / f"{stem}.json").write_text(json.dumps(spec), encoding="utf-8")
        if edges is not None:
            checks[stem] = {"exact": _box_lambda(edges)}
            continue
        record = {"lower": _box_lambda(_occupied_bbox_edges(cells, dim, cell))}
        if center is not None:
            radius = _inscribed_radius(cells, shape, center) * cell
            record["upper"] = _ball_lambda(radius, dim)
        checks[stem] = record
    return checks


def build_plan(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list:
    """The operations of one pass.

    The solve workloads run fixed reference problems in a fixed order, so
    their seed changes nothing; the mask sweep's inputs are generated from
    the seed.
    """
    if workload == "mask-sweep":
        mask_dir = workdir / "masks"
        checks = make_masks(seed, mask_dir, smoke)
        return [
            {
                "kind": "sweep",
                "name": "mask-batch",
                "mask_dir": str(mask_dir),
                "h_start": 0.125,
                "levels": 3,
                "rows": checks,
            }
        ]
    return _solve_cases(workload, smoke)


def argv_for(op: dict, out_path: str) -> list:
    common = ["--h-start", repr(op["h_start"]), "--levels", str(op["levels"]), "--out", out_path]
    if op["kind"] == "sweep":
        return ["sweep", "--family", "mask-batch", "--mask-dir", op["mask_dir"]] + common
    return ["certify", "--domain", json.dumps(op["spec"])] + common


# --------------------------------------------------------------- checks


def _outcome(case, exact=None, lam=None, err=None, band=None, failure=None):
    return {
        "case": case,
        "exact": exact,
        "lambda1": lam,
        "lambda1_error": err,
        "band": band,
        "failure": failure,
    }


def _lambda_failure(lam: float, err: float, exact: float) -> str | None:
    if not (math.isfinite(lam) and lam > 0):
        return f"lambda1 {lam!r} is not a positive number"
    if not err > 0:
        return f"lambda1_error {err!r} is not positive"
    if abs(lam - exact) / exact > REL_CHECK:
        return f"lambda1 {lam:.12g} is off the reference {exact:.12g} by more than {REL_CHECK:g}"
    return None


def _status_failure(code: int, messages: str) -> str | None:
    """Human-readable PASS/FAIL lines must agree with the exit code."""
    statuses = [
        word
        for line in messages.splitlines()
        for word in line.split()
        if word in ("PASS", "FAIL")
    ]
    if not statuses:
        return "no PASS/FAIL lines printed"
    if code == 0 and "FAIL" in statuses:
        return "a bound line says FAIL but the exit code is 0"
    if code == 1 and "FAIL" not in statuses:
        return "every bound line says PASS but the exit code is 1"
    return None


def check_certify(op: dict, code: int, messages: str, artifact: str | None) -> list:
    """One outcome for one certify call."""
    exact = op["exact"]
    if artifact is None:
        return [_outcome(op["name"], exact, failure=f"exit {code}, no artifact")]
    try:
        report = json.loads(artifact)
        lam = float(report["lambda1"])
        err = float(report["lambda1_error"])
        band = float(report["tolerance_band"])
        margins = {k: float(v) for k, v in report["margins"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [_outcome(op["name"], exact, failure=f"artifact does not parse: {exc}")]
    failure = (
        _status_failure(code, messages)
        or (f"exit code {code}" if code != 0 else None)
        or _lambda_failure(lam, err, exact)
        or (None if set(margins) == {"eq7", "eq10", "kennard"} else "margins incomplete")
    )
    return [_outcome(op["name"], exact, lam, err, band, failure)]


def check_sweep(op: dict, code: int, messages: str, artifact: str | None) -> list:
    """One outcome per expected sweep row (one per mask file)."""
    rows = op["rows"]
    if code != 0 or artifact is None:
        return [_outcome(stem, failure=f"sweep exit {code}") for stem in rows]
    reader = csv.DictReader(io.StringIO(artifact))
    if reader.fieldnames != SWEEP_COLUMNS:
        return [_outcome(stem, failure="sweep header differs") for stem in rows]
    seen = {}
    for row in reader:
        seen[row["param"]] = row
    outcomes = []
    for stem, record in rows.items():
        exact = record.get("exact")
        row = seen.get(stem)
        if row is None:
            outcomes.append(_outcome(stem, exact, failure="row missing"))
            continue
        if row["status"] != "ok":
            outcomes.append(_outcome(stem, exact, failure=row["status"]))
            continue
        try:
            lam = float(row["lambda1"])
            err = float(row["lambda1_error"])
        except ValueError as exc:
            outcomes.append(_outcome(stem, exact, failure=f"row does not parse: {exc}"))
            continue
        band = 5.0 * err / lam if lam > 0 else math.inf
        outcome = _outcome(stem, exact, lam, err, band)
        if exact is not None:
            outcome["failure"] = _lambda_failure(lam, err, exact)
        elif not (math.isfinite(lam) and lam > 0):
            outcome["failure"] = f"lambda1 {lam!r} is not a positive number"
        else:
            outcome["bracket_miss"] = not (
                (1 - BRACKET_SLACK) * record["lower"]
                <= lam
                <= (1 + BRACKET_SLACK) * record.get("upper", math.inf)
            )
        outcomes.append(outcome)
    extra = set(seen) - set(rows)
    if extra:
        outcomes.append(_outcome("sweep", failure=f"unexpected rows {sorted(extra)}"))
    return outcomes


def check(op: dict, code: int, messages: str, artifact: str | None) -> list:
    if op["kind"] == "sweep":
        return check_sweep(op, code, messages, artifact)
    return check_certify(op, code, messages, artifact)


def accuracy(outcomes: list) -> dict:
    """lambda1_rel_err, err_coverage and band_rel: the max over the reference
    cases (closed-form lambda1) among the outcomes."""
    refs = [o for o in outcomes if o["exact"] is not None and o["failure"] is None]
    if not refs:
        return {}
    return {
        "lambda1_rel_err": max(abs(o["lambda1"] - o["exact"]) / o["exact"] for o in refs),
        "err_coverage": max(abs(o["lambda1"] - o["exact"]) / o["lambda1_error"] for o in refs),
        "band_rel": max(o["band"] for o in refs),
    }
