"""Compact domains in R^n (n = 1, 2, 3): membership tests and metrics.

Membership is the open interior, the one question the lattice asks.
Points within a relative 1e-12 of the boundary (1e-9 of a cell for raster
masks) count as outside, so roundoff in lattice coordinates, for example
after a translation, does not move a boundary point in.  Every shape is
immutable after construction and all operations are pure functions of the
shape parameters, so instances are safe to share across threads.

The unit-ball volume C_n is taken in closed form: 2, pi and 4*pi/3.  A
raster mask's diameter is exact: the largest distance between two vertices
of its cells, searched only among the vertices that are not the midpoint of
two others along an axis, which hold every extreme point of the convex hull.
A spec's params hold JSON numbers only, in lists at any depth; a string or a
boolean is an error, never read as a number.
"""

from __future__ import annotations

import inspect
import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "Ball",
    "Box",
    "Domain",
    "DomainError",
    "DomainMetrics",
    "Ellipse",
    "Interval",
    "Polygon",
    "RasterMask",
    "domain_from_spec",
    "unit_ball_volume",
]

_BAND = 1e-12  # relative width of the band of points counted as outside
_CHUNK = 512  # rows of points per block of pairwise differences


class DomainError(ValueError):
    """Raised for malformed shape parameters or misuse of a domain."""


def unit_ball_volume(n: int) -> float:
    """Volume C_n of the unit ball in R^n: 2, pi and 4*pi/3 for n = 1, 2, 3."""
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    return (2.0, math.pi, 4.0 * math.pi / 3.0)[n - 1]


@dataclass(frozen=True)
class DomainMetrics:
    """Volume, diameter and, in 2-D, perimeter of a domain.

    All are closed forms except the ellipse perimeter, an elliptic integral
    that the arithmetic-geometric mean gives to about 1e-12 relative.
    """

    volume: float
    diameter: float
    perimeter: float | None = None


class Domain(ABC):
    """A compact region of R^n with an open-interior membership test.

    A subclass keeps each constructor argument, normalized, in an attribute
    of the same name; `to_spec` and `domain_from_spec` read its spec from
    the constructor's signature.
    """

    kind = "domain"

    def __init__(self, dim: int, bounding_box: np.ndarray):
        if dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2 or 3, got {dim}")
        box = np.asarray(bounding_box, dtype=float).reshape(dim, 2)
        if not np.all(np.isfinite(box)):
            raise DomainError("bounding box must be finite")
        if not np.all(box[:, 1] > box[:, 0]):
            raise DomainError("bounding box must have positive extent on every axis")
        self.dim = int(dim)
        self.bounding_box = box

    def membership(self, points: np.ndarray) -> np.ndarray:
        """Which of an (M, dim) array of points lie strictly inside."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DomainError(
                f"points must have shape (M, {self.dim}), got {points.shape}"
            )
        return self._membership(points)

    @abstractmethod
    def _membership(self, points: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def metrics(self) -> DomainMetrics:
        """Volume, diameter and (in 2-D) perimeter."""

    def to_spec(self) -> dict:
        """JSON-serializable description; inverse of `domain_from_spec`."""
        params = {}
        for name in inspect.signature(type(self)).parameters:
            value = getattr(self, name)
            params[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return {"kind": self.kind, "dim": self.dim, "params": params}

    def __repr__(self):
        return f"{type(self).__name__}({self.to_spec()['params']})"


class Box(Domain):
    """An axis-aligned box given by per-axis bounds [[lo, hi], ...]."""

    kind = "box"

    def __init__(self, bounds):
        bounds = np.asarray(bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise DomainError(f"bounds must be (dim, 2), got {bounds.shape}")
        self.bounds = bounds
        super().__init__(bounds.shape[0], bounds)

    def _membership(self, points):
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        band = _BAND * (hi - lo)
        return np.all((points > lo + band) & (points < hi - band), axis=1)

    def metrics(self):
        sides = self.bounds[:, 1] - self.bounds[:, 0]
        return DomainMetrics(
            volume=float(np.prod(sides)),
            diameter=float(np.linalg.norm(sides)),
            perimeter=2.0 * float(sides.sum()) if self.dim == 2 else None,
        )


class Interval(Box):
    """The segment [a, b] on the line."""

    kind = "interval"

    def __init__(self, a: float, b: float):
        self.a = float(a)
        self.b = float(b)
        super().__init__([[self.a, self.b]])


class Ball(Domain):
    """A solid ball (segment / disk / ball for n = 1, 2, 3)."""

    kind = "ball"

    def __init__(self, center, radius: float):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if radius <= 0:
            raise DomainError(f"radius must be positive, got {radius}")
        self.center = center
        self.radius = float(radius)
        box = np.stack([center - radius, center + radius], axis=1)
        super().__init__(center.shape[0], box)

    def _membership(self, points):
        r2 = np.sum((points - self.center) ** 2, axis=1)
        return r2 < self.radius**2 * (1.0 - _BAND)

    def metrics(self):
        return DomainMetrics(
            volume=unit_ball_volume(self.dim) * self.radius**self.dim,
            diameter=2.0 * self.radius,
            perimeter=2.0 * math.pi * self.radius if self.dim == 2 else None,
        )


def _agm_ellipse_perimeter(a: float, b: float) -> float:
    # Complete elliptic integral of the second kind via the
    # arithmetic-geometric mean; quadratically convergent.
    big, small = max(a, b), min(a, b)
    x, y = 1.0, small / big
    c2_sum = 0.5 * (1.0 - y * y)  # 2^(n-1) * c_n^2 accumulator, n = 0 term
    power = 0.5
    for _ in range(40):  # quadratic convergence; 40 is far beyond need
        if abs(x - y) <= 4e-16 * x:
            break
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        power *= 2.0
        c2_sum += power * c * c
    k_complete = math.pi / (x + y)  # = pi / (2 * agm)
    e_complete = k_complete * (1.0 - c2_sum)
    return 4.0 * big * e_complete


class Ellipse(Domain):
    """An axis-aligned ellipse (n = 2) or ellipsoid (n = 3)."""

    kind = "ellipse"

    def __init__(self, center, semi_axes):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        semi = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        if center.shape != semi.shape:
            raise DomainError("center and semi_axes must have the same length")
        if semi.shape[0] not in (2, 3):
            raise DomainError("ellipse supports dim 2 or 3")
        if not np.all(semi > 0):
            raise DomainError("semi-axes must be positive")
        self.center = center
        self.semi_axes = semi
        box = np.stack([center - semi, center + semi], axis=1)
        super().__init__(semi.shape[0], box)

    def _membership(self, points):
        q = np.sum(((points - self.center) / self.semi_axes) ** 2, axis=1)
        return q < 1.0 - _BAND

    def metrics(self):
        return DomainMetrics(
            volume=unit_ball_volume(self.dim) * float(np.prod(self.semi_axes)),
            diameter=2.0 * float(np.max(self.semi_axes)),
            perimeter=_agm_ellipse_perimeter(*self.semi_axes) if self.dim == 2 else None,
        )


class Polygon(Domain):
    """A simple polygon with counterclockwise vertices (n = 2)."""

    kind = "polygon"

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise DomainError("vertices must be an (m >= 3, 2) array")
        signed = _shoelace(verts)
        if signed <= 0:
            raise DomainError("vertices must be in counterclockwise order")
        if _self_intersects(verts):
            raise DomainError("polygon must be simple (non-self-intersecting)")
        self.vertices = verts
        box = np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1)
        super().__init__(2, box)
        self._scale = float(np.max(box[:, 1] - box[:, 0]))

    def _membership(self, points):
        on_edge = np.zeros(points.shape[0], dtype=bool)
        inside = np.zeros(points.shape[0], dtype=bool)
        eps = 1e-12 * max(self._scale, 1.0)
        px, py = points[:, 0], points[:, 1]
        verts = self.vertices
        m = verts.shape[0]
        for i in range(m):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % m]
            # boundary test: zero cross product and within the segment span
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
            seg2 = (bx - ax) ** 2 + (by - ay) ** 2
            on_edge |= (
                (np.abs(cross) <= eps * math.sqrt(seg2))
                & (dot >= -eps)
                & (dot <= seg2 + eps)
            )
            # even-odd ray casting, half-open in y to be vertex-safe
            crosses = (ay <= py) != (by <= py)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_int = ax + (py - ay) * (bx - ax) / (by - ay)
            inside ^= crosses & (px < x_int)
        return inside & ~on_edge

    def metrics(self):
        verts = self.vertices
        area = 0.5 * _shoelace(verts)
        edge = np.roll(verts, -1, axis=0) - verts
        perimeter = float(np.sum(np.hypot(edge[:, 0], edge[:, 1])))
        return DomainMetrics(
            volume=float(area),
            diameter=_max_pairwise_distance(verts),
            perimeter=perimeter,
        )


def _shoelace(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _self_intersects(verts: np.ndarray) -> bool:
    m = verts.shape[0]

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < 1e-14 else (1 if v > 0 else -1)

    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        for j in range(i + 1, m):
            if (j + 1) % m == i or (i + 1) % m == j:
                continue  # adjacent edges share a vertex by construction
            c, d = verts[j], verts[(j + 1) % m]
            if (
                orient(a, b, c) != orient(a, b, d)
                and orient(c, d, a) != orient(c, d, b)
            ):
                return True
    return False


class RasterMask(Domain):
    """A union of grid cells given by a 0/1 occupancy array.

    The mask array is indexed mask[i][j] (row-major); axis 0 is the first
    coordinate.  The represented region is the closed union of occupied
    cells of side `cell_size`, anchored at `origin`.
    """

    kind = "raster-mask"

    def __init__(self, mask, cell_size: float, origin=None):
        occ = np.asarray(mask)
        if occ.ndim not in (2, 3):
            raise DomainError("mask must be a 2-D or 3-D array")
        if cell_size <= 0:
            raise DomainError(f"cell_size must be positive, got {cell_size}")
        if not np.isin(occ, (0, 1)).all():
            raise DomainError("mask entries must be 0 or 1")
        self.occupied = occ.astype(bool)
        if not self.occupied.any():
            raise DomainError("mask has no occupied cells")
        self.cell_size = float(cell_size)
        dim = occ.ndim
        self.origin = (
            np.zeros(dim) if origin is None else np.asarray(origin, dtype=float)
        )
        hi = self.origin + np.array(occ.shape) * self.cell_size
        super().__init__(dim, np.stack([self.origin, hi], axis=1))

    @property
    def mask(self) -> np.ndarray:
        """The occupancy array as 0/1 integers."""
        return self.occupied.astype(int)

    def _cells_covering(self, points, offset, top):
        # indices into the array padded by one free layer, clipped in float
        # so that the cast sees neither NaN, nor inf, nor a value past int64;
        # a coordinate that overflows to inf is clipped like any far one
        with np.errstate(over="ignore"):
            scaled = (points - self.origin) / self.cell_size
        cells = np.clip(np.floor(scaled + offset) + 1, 0, top)
        return np.where(np.isnan(cells), 0, cells).astype(int)

    def _membership(self, points):
        eps = 1e-9  # in cell units; lattice points sit exactly on cell faces
        # inside iff every one of the up-to-2^dim cells whose closure
        # touches the point is occupied; a free layer around the array
        # answers for cells past it, and so for far-away and NaN points
        padded = np.pad(self.occupied, 1)
        top = np.array(padded.shape) - 1
        lo = self._cells_covering(points, -eps, top)
        hi = self._cells_covering(points, +eps, top)
        steps = np.array(padded.strides) // padded.itemsize
        base = lo @ steps  # flat index of the lowest touching cell
        jumps = [(hi[:, a] - lo[:, a]) * steps[a] for a in range(self.dim)]
        flat = padded.ravel()
        result = np.ones(points.shape[0], dtype=bool)
        for corner in np.ndindex(*(2,) * self.dim):
            result &= flat[sum((j for j, c in zip(jumps, corner) if c), base)]
        return result

    def metrics(self):
        occ = self.occupied
        perimeter = None
        if self.dim == 2:
            exposed = sum(int(np.sum(occ & ~nb)) for nb in _neighbor_views(occ))
            perimeter = exposed * self.cell_size
        return DomainMetrics(
            volume=int(occ.sum()) * self.cell_size**self.dim,
            diameter=_max_pairwise_distance(self._hull_candidates()),
            perimeter=perimeter,
        )

    def _hull_candidates(self) -> np.ndarray:
        # the vertices of the closed union that are not the midpoint of two
        # union vertices along an axis; every extreme point of the convex
        # hull is among them, and the diameter is attained at two of those
        padded = np.pad(self.occupied, 1)
        shape = self.occupied.shape
        vertices = np.zeros(tuple(s + 1 for s in shape), dtype=bool)
        for corner in np.ndindex(*(2,) * self.dim):
            vertices |= padded[tuple(slice(c, c + s + 1) for c, s in zip(corner, shape))]
        keep = vertices.copy()
        views = _neighbor_views(vertices)
        for before, after in zip(views, views):
            keep &= ~(before & after)
        return self.origin + np.argwhere(keep) * self.cell_size

    def has_holes(self) -> bool:
        """True when unoccupied cells are fully enclosed by occupied ones."""
        # one search from the corner of a ring of free cells, which is
        # connected and touches every free border cell, reaches every free
        # cell that is not enclosed; a blocked outer layer bounds the search
        free = np.pad(np.pad(~self.occupied, 1, constant_values=True), 1)
        start = (1,) * self.dim
        seen = np.zeros(free.shape, dtype=bool)
        seen[start] = True
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            for axis in range(self.dim):
                for shift in (-1, 1):
                    nb = cell[:axis] + (cell[axis] + shift,) + cell[axis + 1:]
                    if free[nb] and not seen[nb]:
                        seen[nb] = True
                        queue.append(nb)
        return bool(np.any(free & ~seen))


def _neighbor_views(occ: np.ndarray):
    """The 2 * ndim views of `occ` shifted by one cell along each axis, with
    False beyond the array's edge."""
    pad = np.pad(occ, 1, constant_values=False)
    for axis in range(occ.ndim):
        for shift in (-1, 1):
            yield pad[
                tuple(
                    slice(1 + shift * (a == axis), s + 1 + shift * (a == axis))
                    for a, s in enumerate(occ.shape)
                )
            ]


def _max_pairwise_distance(points: np.ndarray) -> float:
    best = 0.0
    for start in range(0, points.shape[0], _CHUNK):
        block = points[start : start + _CHUNK]
        diff = block[:, None, :] - points[None, :, :]
        best = max(best, float(np.max(np.sum(diff**2, axis=-1))))
    return math.sqrt(best)


_KINDS = {cls.kind: cls for cls in (Interval, Box, Ball, Ellipse, Polygon, RasterMask)}


def domain_from_spec(spec: dict) -> Domain:
    """Build a Domain from its JSON description.

    Expected shape: {"kind": ..., "dim": n, "params": {...}}, where `params`
    holds the arguments of the kind's constructor by name; those with a
    default may be left out.
    """
    if not isinstance(spec, dict):
        raise DomainError("domain spec must be a JSON object")
    try:
        kind = spec["kind"]
    except KeyError:
        raise DomainError("domain spec is missing the 'kind' field") from None
    if not isinstance(kind, str):
        raise DomainError(f"domain spec 'kind' must be a string, got {kind!r}")
    if kind not in _KINDS:
        raise DomainError(
            f"unknown domain kind '{kind}' (expected one of {sorted(_KINDS)})"
        )
    params = spec.get("params")
    if not isinstance(params, dict):
        raise DomainError("domain spec is missing the 'params' object")
    # numpy would read the string "0" as an occupied cell and true as 1.
    # The walk is breadth first, a level at a time, so that the first
    # offender is the shallowest and a regular nested list flattens at C speed
    for name, value in params.items():
        level = [value]
        while level:
            types = set(map(type, level))
            if any(issubclass(t, (str, bool)) for t in types):
                item = next(x for x in level if isinstance(x, (str, bool)))
                raise DomainError(
                    f"domain spec param '{name}' must hold only JSON numbers, "
                    f"got {item!r}"
                )
            lists = [issubclass(t, list) for t in types]
            if not any(lists):
                break
            if not all(lists):
                level = [x for x in level if isinstance(x, list)]
            level = list(chain.from_iterable(level))
    cls = _KINDS[kind]
    try:
        args = [
            params[arg.name] if arg.default is arg.empty else params.get(arg.name, arg.default)
            for arg in inspect.signature(cls).parameters.values()
        ]
        domain = cls(*args)
    except KeyError as exc:
        raise DomainError(f"domain spec params are missing field {exc}") from None
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed {kind} params: {exc}") from None
    declared = spec.get("dim")
    # a string or a boolean is not a dim, as it is not a param
    if declared is not None and (isinstance(declared, bool) or declared != domain.dim):
        raise DomainError(f"declared dim {declared!r} does not match shape dim {domain.dim}")
    return domain
