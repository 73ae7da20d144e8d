"""Compact domains in R^n (n = 1, 2, 3): membership tests and metrics.

Membership is the open interior, the one question the lattice asks.  Each
kind states its rule once, over one coordinate array per axis that
broadcast together: `membership` passes the columns of a point array, and
`lattice_membership` the axis vectors of a lattice, so a lattice is tested
without forming its points and both give the same answer bit for bit.
Points within a relative 1e-12 of the boundary (1e-9 of a cell for raster
masks) count as outside, so roundoff in lattice coordinates, for example
after a translation, does not move a boundary point in.  Every shape is
immutable after construction and all operations are pure functions of the
shape parameters, so instances are safe to share across threads.

A ball is the ellipse whose semi-axes all equal its radius, as an interval
is the 1-D box, so the two share one membership test and one set of closed
forms; an ellipse has one to three axes.  The unit-ball volume C_n is taken
in closed form: 2, pi and 4*pi/3.  A raster mask's diameter is exact: the
largest distance between two vertices of its cells, searched only among the
vertices that are not the midpoint of two others along an axis, which hold
every extreme point of the convex hull.
A spec's params hold JSON numbers only, in lists at any depth; a string or a
boolean is an error, never read as a number.  A key that the kind's
constructor does not take, in the spec or in its params, is an error too.
"""

from __future__ import annotations

import functools
import inspect
import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

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

    @property
    def extent(self) -> np.ndarray:
        """A (dim, 2) box, inside the bounding box, that holds every point
        the membership test counts inside: the bounding box itself, unless a
        kind knows a tighter one."""
        return self.bounding_box

    def membership(self, points: np.ndarray) -> np.ndarray:
        """Which of an (M, dim) array of points lie strictly inside."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DomainError(
                f"points must have shape (M, {self.dim}), got {points.shape}"
            )
        return self._membership(list(points.T))

    def lattice_membership(self, axes) -> np.ndarray:
        """Which points of the lattice axes[0] x axes[1] x ... lie strictly
        inside, as a boolean array of shape (len(axes[0]), len(axes[1]), ...).

        The answer equals `membership` on the same points, stacked in
        row-major order, but no (points, dim) array is formed.
        """
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != self.dim or any(a.ndim != 1 for a in axes):
            raise DomainError(f"need {self.dim} one-dimensional axis vectors")
        return self._membership(list(np.ix_(*axes)))

    @abstractmethod
    def _membership(self, coords: list) -> np.ndarray:
        """The rule on one coordinate array per axis, which broadcast
        together; the answer has their broadcast shape."""

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

    def _membership(self, coords):
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        band = _BAND * (hi - lo)
        per_axis = [(x > a) & (x < b) for x, a, b in zip(coords, lo + band, hi - band)]
        return functools.reduce(np.logical_and, per_axis)

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
    """An axis-aligned ellipse (n = 2) or ellipsoid (n = 3); in 1-D, the
    segment center +/- semi_axes[0]."""

    kind = "ellipse"

    def __init__(self, center, semi_axes):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        semi = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        if center.shape != semi.shape:
            raise DomainError("center and semi_axes must have the same length")
        if not np.all(semi > 0):
            raise DomainError("semi-axes must be positive")
        self.center = center
        self.semi_axes = semi
        box = np.stack([center - semi, center + semi], axis=1)
        super().__init__(semi.shape[0], box)

    def _membership(self, coords):
        squares = []
        for x, c, s in zip(coords, self.center, self.semi_axes):
            q = x - c
            q /= s
            q *= q
            squares.append(q)
        # summed left to right, as a row sum of an (M, dim) array is
        return functools.reduce(np.add, squares) < 1.0 - _BAND

    def metrics(self):
        return DomainMetrics(
            volume=unit_ball_volume(self.dim) * float(np.prod(self.semi_axes)),
            diameter=2.0 * float(np.max(self.semi_axes)),
            perimeter=_agm_ellipse_perimeter(*self.semi_axes) if self.dim == 2 else None,
        )


class Ball(Ellipse):
    """A solid ball (segment / disk / ball for n = 1, 2, 3): the round ellipse."""

    kind = "ball"

    def __init__(self, center, radius: float):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not radius > 0:
            raise DomainError(f"radius must be positive, got {radius}")
        self.radius = float(radius)
        super().__init__(center, [self.radius] * center.shape[0])


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
        box = np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1)
        super().__init__(2, box)
        # tolerances are relative to the extent, so scaling moves no decision
        self._scale = float(np.max(box[:, 1] - box[:, 0]))
        if _self_intersects(verts, self._scale):
            raise DomainError("polygon must be simple (non-self-intersecting)")
        self.vertices = verts

    def _membership(self, coords):
        px, py = coords
        shape = np.broadcast_shapes(px.shape, py.shape)
        on_edge = np.zeros(shape, dtype=bool)
        inside = np.zeros(shape, dtype=bool)
        eps = _BAND * self._scale
        verts = self.vertices
        m = verts.shape[0]
        for i in range(m):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % m]
            # boundary test: zero cross product and within the segment span
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
            seg2 = (bx - ax) ** 2 + (by - ay) ** 2
            # cross and dot are lengths times the edge length
            band = eps * math.sqrt(seg2)
            on_edge |= (np.abs(cross) <= band) & (dot >= -band) & (dot <= seg2 + band)
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


def _self_intersects(verts: np.ndarray, extent: float) -> bool:
    m = verts.shape[0]
    # a cross product is an area: collinear below 1e-14 of the extent squared
    flat = 1e-14 * extent * extent

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < flat else (1 if v > 0 else -1)

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

    @functools.cached_property
    def extent(self):
        # the box of the occupied cells, scanned once since a mask does not
        # change; the array's own box, where the lattice is anchored, may
        # have empty margins
        cells = []
        for axis in range(self.dim):
            others = tuple(b for b in range(self.dim) if b != axis)
            used = np.flatnonzero(self.occupied.any(axis=others))
            cells.append([used[0], used[-1] + 1])
        return self.origin[:, None] + np.array(cells) * self.cell_size

    def _cells_covering(self, x, axis, offset, top):
        # indices along `axis` into the array padded by one free layer,
        # clipped in float so that the cast sees neither NaN, nor inf, nor a
        # value past int64; a coordinate that overflows to inf is clipped
        # like any far one
        with np.errstate(over="ignore"):
            scaled = (x - self.origin[axis]) / self.cell_size
        cells = np.clip(np.floor(scaled + offset) + 1, 0, top)
        return np.where(np.isnan(cells), 0, cells).astype(int)

    def _membership(self, coords):
        eps = 1e-9  # in cell units; lattice points sit exactly on cell faces
        # inside iff every one of the up-to-2^dim cells whose closure
        # touches the point is occupied; a free layer around the array
        # answers for cells past it, and so for far-away and NaN points
        padded = np.pad(self.occupied, 1)
        touching = [
            (self._cells_covering(x, axis, -eps, top), self._cells_covering(x, axis, +eps, top))
            for axis, (x, top) in enumerate(zip(coords, np.array(padded.shape) - 1))
        ]
        result = np.ones(np.broadcast_shapes(*(x.shape for x in coords)), dtype=bool)
        for corner in np.ndindex(*(2,) * self.dim):
            # the index arrays broadcast, so a lattice gathers without
            # forming its points
            result &= padded[tuple(pair[c] for pair, c in zip(touching, corner))]
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
    default may be left out.  Any other key is an error.
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
    cls = _KINDS[kind]
    fields = inspect.signature(cls).parameters
    # a misspelt key would otherwise be dropped, or its default used
    extra = sorted(spec.keys() - {"kind", "dim", "params"}, key=str)
    if extra:
        raise DomainError(f"domain spec has unknown key {extra[0]!r} (expected kind, dim, params)")
    extra = sorted(params.keys() - fields.keys(), key=str)
    if extra:
        raise DomainError(f"{kind} params have unknown key {extra[0]!r} (expected {', '.join(fields)})")
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
    try:
        args = [
            params[arg.name] if arg.default is arg.empty else params.get(arg.name, arg.default)
            for arg in fields.values()
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
