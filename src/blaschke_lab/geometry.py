"""Pseudohyperbolic geometry on the open unit disk.

Distances, the disk automorphisms that realize them, and the Euclidean
description of pseudohyperbolic disks.  All quantities of the form
1 - |z|^2 are computed as (1 - |z|)(1 + |z|) so that points close to the
circle keep their full relative accuracy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .errors import PointOutsideDisk, PrecisionViolation

__all__ = [
    "BOUNDARY_MARGIN",
    "DiskPoint",
    "CirclePoint",
    "EuclideanDisk",
    "KernelBoundsReport",
    "rho",
    "beta",
    "mobius",
    "pseudo_disk_to_euclidean",
    "kernel_bounds_check",
    "elementwise_rho",
    "pairwise_rho",
    "one_minus_abs_sq",
    "wrap_angle",
]

# Points closer to the circle than this are rejected: kernels and the
# tolerances built on them lose all meaning there.
BOUNDARY_MARGIN = 1e-15

TWO_PI = 2.0 * math.pi

# Rows per block of _in_row_blocks.  Every pass that reduces the rows of a
# points x N matrix goes through it: the closest-pair reduction (so the
# duplicate check and every separation), kernel_bounds_check, the node
# cofactors, evaluate, derivative, the interpolant's Cauchy sums, the
# Frostman sums (so the Lebesgue constant), cohn_sum and dyakonov_sup.
# frostman_sum takes ROW_BLOCK points at a time; the perturbation reports
# take ROW_BLOCK * REFINE_SEEDS, the points of ROW_BLOCK golden scans, and so
# many (trial, index) rows of their pair envelopes.  A pass writes its block
# temporaries into Buffers that it owns, so its blocks reuse one allocation
# each.
ROW_BLOCK = 64

PointLike = Union["DiskPoint", complex, float, int]


def wrap_angle(x: float) -> float:
    """The argument x reduced to [0, 2*pi).

    x % (2*pi) rounds to exactly 2*pi for x in (-4.4e-16, 0); that is the
    same point of the circle as 0.0, and 0.0 is returned for it.
    """
    wrapped = float(x) % TWO_PI
    return 0.0 if wrapped == TWO_PI else wrapped


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disk."""

    re: float
    im: float

    def __post_init__(self):
        finite = math.isfinite(self.re) and math.isfinite(self.im)
        if not (finite and abs(complex(self.re, self.im)) < 1.0 - BOUNDARY_MARGIN):
            raise _outside_disk(self.re, self.im)

    @classmethod
    def from_complex(cls, w: complex) -> "DiskPoint":
        w = complex(w)
        return cls(w.real, w.imag)

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return self.z


@dataclass(frozen=True)
class CirclePoint:
    """A point of the unit circle, stored exactly by its argument in [0, 2*pi)."""

    arg: float

    def __post_init__(self):
        if not math.isfinite(self.arg):
            raise ValueError(f"non-finite argument {self.arg}")
        object.__setattr__(self, "arg", wrap_angle(self.arg))

    @classmethod
    def from_complex(cls, w: complex) -> "CirclePoint":
        w = complex(w)
        if abs(abs(w) - 1.0) > 1e-9:
            raise ValueError(f"|w| = {abs(w):.17g} is not unimodular")
        return cls(cmath.phase(w))

    @property
    def value(self) -> complex:
        return cmath.exp(1j * self.arg)

    def __complex__(self) -> complex:
        return self.value


@dataclass(frozen=True)
class EuclideanDisk:
    """An ordinary disk in the plane, contained in the closed unit disk."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius {self.radius} must be positive")
        if abs(self.center) + self.radius > 1.0 + 1e-12:
            raise ValueError(
                f"disk with |center| = {abs(self.center):.17g} and radius "
                f"{self.radius:.17g} leaves the closed unit disk"
            )

    def contains(self, w: complex, slack: float = 0.0) -> bool:
        return abs(complex(w) - self.center) <= self.radius + slack

    def boundary_points(self, count: int) -> np.ndarray:
        """Equally spaced points of the bounding circle."""
        angles = TWO_PI * np.arange(count) / count
        return self.center + self.radius * np.exp(1j * angles)


def _outside_disk(re, im) -> PointOutsideDisk:
    """The error for the point (re, im), which is not strictly inside the disk."""
    if not (math.isfinite(re) and math.isfinite(im)):
        return PointOutsideDisk(f"non-finite point ({re}, {im})")
    return PointOutsideDisk(
        f"|z| = {abs(complex(re, im)):.17g} is not strictly inside the unit disk (margin {BOUNDARY_MARGIN:g})"
    )


def as_point(value: PointLike) -> DiskPoint:
    """Coerce a complex-like value to a validated DiskPoint."""
    if isinstance(value, DiskPoint):
        return value
    return DiskPoint.from_complex(complex(value))


def complex_vector(values: Iterable[complex]) -> np.ndarray:
    """values as a new 1-D complex array, with the bits of complex(v) for each v."""
    vector = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=complex)
    if vector.ndim != 1:
        raise TypeError(f"expected a flat list of values, got an array of shape {vector.shape}")
    return vector


def disk_values(points: Iterable[PointLike]) -> np.ndarray:
    """The points as a new complex array, checked at once by DiskPoint's rule and error.

    np.hypot of the parts is what Python's abs of a complex computes (np.abs
    can differ in the last bit), so every decision is DiskPoint's.
    """
    values = complex_vector(points)
    re, im = values.real, values.imag
    outside = ~(np.isfinite(re) & np.isfinite(im) & (np.hypot(re, im) < 1.0 - BOUNDARY_MARGIN))
    if outside.any():
        first = int(outside.argmax())
        raise _outside_disk(float(re[first]), float(im[first]))
    return values


def one_minus_abs_sq(values) -> np.ndarray:
    """1 - |z|^2 in the cancellation-safe form (1 - |z|)(1 + |z|)."""
    mod = np.abs(np.asarray(values, dtype=complex))
    return (1.0 - mod) * (1.0 + mod)


def rho(a: PointLike, z: PointLike) -> float:
    """Pseudohyperbolic distance |z - a| / |1 - conj(a) z|."""
    aw = as_point(a).z
    zw = as_point(z).z
    return abs(zw - aw) / abs(1.0 - aw.conjugate() * zw)


def beta(a: PointLike, z: PointLike) -> float:
    """Hyperbolic distance, (1/2) log((1 + rho) / (1 - rho))."""
    return math.atanh(rho(a, z))


def mobius(a: PointLike, z: PointLike) -> DiskPoint:
    """The involutive automorphism (a - z) / (1 - conj(a) z) applied to z."""
    aw = as_point(a).z
    zw = as_point(z).z
    return DiskPoint.from_complex((aw - zw) / (1.0 - aw.conjugate() * zw))


def elementwise_rho(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """rho(a, z) entry by entry, for complex arrays that broadcast together."""
    return np.abs(z - a) / np.abs(1.0 - np.conj(a) * z)


def pairwise_rho(a_values, z_values) -> np.ndarray:
    """Matrix of pseudohyperbolic distances, rows over a, columns over z: the outer case of elementwise_rho."""
    a = np.asarray(a_values, dtype=complex).reshape(-1, 1)
    z = np.asarray(z_values, dtype=complex).reshape(1, -1)
    return elementwise_rho(a, z)


class Buffers:
    """Named scratch memory that the row blocks of one pass write their temporaries into.

    take(name, shape, dtype) views the memory called name as an array of
    that shape, grown when it is too small, so the blocks of a pass reuse
    one allocation per name instead of making their own.  Two takes of one
    name share memory: a kernel may take a name again, under another dtype,
    once it is done with the first view.  The memory goes with the Buffers,
    so whoever creates them decides how long it is kept.
    """

    __slots__ = ("_memory",)

    def __init__(self):
        self._memory = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        memory = self._memory.get(name)
        if memory is None or memory.size < size:
            memory = self._memory[name] = np.empty(size, np.uint8)
        return memory[:size].view(dtype).reshape(shape)


def _in_row_blocks(count: int, reduce: Callable[[slice], np.ndarray], group: int = 1) -> np.ndarray:
    """reduce(rows) over range(count), ROW_BLOCK * group consecutive rows at a time.

    reduce maps a slice of m rows to an array whose last axis has length m,
    each entry computed from its own row alone (one row of a points x zeros
    matrix, reduced by itself).  Then the values do not depend on the
    blocking, and temporaries hold ROW_BLOCK * group rows at most.  The
    perturbation pass passes group = REFINE_SEEDS: a block then holds as
    many rows as ROW_BLOCK of its golden scans.
    """
    block = ROW_BLOCK * group
    if count <= block:
        return reduce(slice(0, count))
    first = reduce(slice(0, block))
    out = np.empty(first.shape[:-1] + (count,), first.dtype)
    out[..., :block] = first
    for start in range(block, count, block):
        out[..., start:start + block] = reduce(slice(start, start + block))
    return out


def _rho_rows(a: np.ndarray, z: np.ndarray, buffers: Buffers) -> np.ndarray:
    """pairwise_rho(a, z), written into buffers: the same operations, with no new matrix.

    The operands keep pairwise_rho's shapes, (m, 1) against (1, n): numpy
    picks its complex loops by shape, and one row of one column, (1, 1)
    against (1,), takes a loop whose bits differ.
    """
    shape = (a.size, z.size)
    gaps = buffers.take("complex", shape)
    dist = buffers.take("dist", shape, float)
    kernel = buffers.take("kernel", shape, float)
    np.abs(np.subtract(z[None, :], a[:, None], out=gaps), out=dist)
    np.multiply(np.conj(a)[:, None], z[None, :], out=gaps)
    np.abs(np.subtract(1.0, gaps, out=gaps), out=kernel)
    return np.divide(dist, kernel, out=dist)


def pseudo_disk_to_euclidean(center: PointLike, r: float) -> EuclideanDisk:
    """Euclidean realization of the pseudohyperbolic disk of radius r.

    For a center at distance m from the origin the image disk has Euclidean
    center (1 - r^2) m / (1 - r^2 m^2) along the same ray and radius
    r (1 - m^2) / (1 - r^2 m^2); an off-axis center is handled by rotation,
    under which the pseudohyperbolic metric is invariant.
    """
    c = as_point(center).z
    if not 0.0 < r < 1.0:
        raise ValueError(f"pseudohyperbolic radius {r} must lie in (0, 1)")
    centers, radii = _euclidean_disks(np.array([c]), r)
    return EuclideanDisk(center=complex(centers[0]), radius=float(radii[0]))


def _euclidean_disks(centers: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of the Euclidean images of the pseudohyperbolic disks of radius r around centers.

    The array form of pseudo_disk_to_euclidean, with no checks.  m is
    np.hypot of the parts, as Python's abs of a complex computes it (np.abs
    of a complex array can differ in the last bit), and the phase divides
    each part by m.
    """
    m = np.hypot(centers.real, centers.imag)
    denom = (1.0 - r * m) * (1.0 + r * m)
    p = (1.0 - r) * (1.0 + r) * m / denom
    radii = r * (1.0 - m) * (1.0 + m) / denom
    safe = np.where(m > 0.0, m, 1.0)
    images = np.empty(centers.shape, dtype=complex)
    images.real = np.where(m > 0.0, centers.real / safe, 1.0) * p
    images.imag = np.where(m > 0.0, centers.imag / safe, 0.0) * p
    return images, radii


@dataclass(frozen=True)
class KernelBoundsReport:
    """Worst slack observed for each of the four kernel comparison bounds.

    Slack is the amount by which the bound holds; a negative slack means
    the bound failed at the recorded pair (row index into the first
    sequence, column index into the second).
    """

    s: float
    floor_slack: float
    z_kernel_slack: float
    a_kernel_slack: float
    normalized_kernel_slack: float
    witness: tuple[int, int]

    def min_slack(self) -> float:
        return min(
            self.floor_slack,
            self.z_kernel_slack,
            self.a_kernel_slack,
            self.normalized_kernel_slack,
        )


def kernel_bounds_check(
    a_points: Iterable[PointLike],
    z_points: Iterable[PointLike],
    r: float,
) -> KernelBoundsReport:
    """Verify the kernel comparison bounds for hyperbolically close pairs.

    With s = tanh(r) and every pair within hyperbolic distance r, each pair
    (a, z) must satisfy

        1 - s <= (1 - s |z|) / (1 - |z|^2) <= 1 / |1 - conj(a) z|,
        (1 - s |a|) / (1 - |a|^2) <= 1 / |1 - conj(a) z|,
        (1 - |z|^2) / |1 - conj(a) z| >= 1 - s.

    Raises PrecisionViolation if any bound fails by more than 1e-12, which
    signals a bug rather than bad input.  rho and |1 - conj(a) z| come from
    the kernel (1 - |a|^2) + conj(a) (a - z), exact where a and z nearly
    coincide near the circle, ROW_BLOCK rows of a at a time; the witness is
    the first pair in row-major order with the worst slack.
    """
    a = disk_values(a_points)
    z = disk_values(z_points)
    if a.size == 0 or z.size == 0:
        raise ValueError("both point sets must be nonempty")
    if not 0.0 < r:
        raise ValueError(f"hyperbolic radius {r} must be positive")

    s = math.tanh(r)
    size_a, size_z = one_minus_abs_sq(a), one_minus_abs_sq(z)
    mid_z = (1.0 - s * np.abs(z)) / size_z
    mid_a = (1.0 - s * np.abs(a)) / size_a
    slacks = {
        "floor_slack": lambda rows, inv, out: np.subtract(mid_z, 1.0 - s, out=out),
        "z_kernel_slack": lambda rows, inv, out: np.subtract(inv, mid_z, out=out),
        "a_kernel_slack": lambda rows, inv, out: np.subtract(inv, mid_a[rows, None], out=out),
        "normalized_kernel_slack": lambda rows, inv, out: np.subtract(
            np.multiply(size_z, inv, out=out), 1.0 - s, out=out
        ),
    }
    buffers = Buffers()

    def kernels(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """rho and 1 / |1 - conj(a) z| of rows of a against every z, the kernel as (1 - |a|^2) + conj(a) (a - z)."""
        shape = (a[rows].size, z.size)
        gaps = np.subtract(a[rows, None], z, out=buffers.take("gaps", shape))
        dist = np.abs(gaps, out=buffers.take("dist", shape, float))
        # the product goes to its own buffer: numpy's in-place complex product
        # of a single element takes another loop, with other bits
        kernel = np.multiply(np.conj(a[rows])[:, None], gaps, out=buffers.take("kernel", shape))
        # the gaps are read: their memory takes 1 / |kernel|
        inv = np.abs(np.add(size_a[rows, None], kernel, out=kernel), out=buffers.take("gaps", shape, float))
        np.divide(dist, inv, out=dist)
        return dist, np.divide(1.0, inv, out=inv)

    def row_extremes(rows: slice) -> np.ndarray:
        dist, inv = kernels(rows)
        extremes = [dist.max(axis=1)]
        # dist is read: its memory takes each slack in turn
        extremes += [slack(rows, inv, dist).min(axis=1) for slack in slacks.values()]
        return np.array(extremes)

    nearest, *row_worst = _in_row_blocks(a.size, row_extremes)
    # rho near the circle can round to 1: capped, that is distance inf, not NaN.
    with np.errstate(divide="ignore"):
        sup_beta = float(np.arctanh(min(nearest.max(), 1.0)))
    if sup_beta > r * (1.0 + 1e-12) + 1e-12:
        raise ValueError(
            f"pair at hyperbolic distance {sup_beta:.17g} exceeds the stated radius {r:.17g}"
        )

    worst = {name: float(row.min()) for name, row in zip(slacks, row_worst)}
    worst_name = min(worst, key=worst.get)
    # the first row-major witness: the first row that holds the worst, and its first column
    j = int(row_worst[list(slacks).index(worst_name)].argmin())
    dist, inv = kernels(slice(j, j + 1))
    witness = (j, int(slacks[worst_name](slice(j, j + 1), inv, dist).argmin()))

    report = KernelBoundsReport(s=s, witness=witness, **worst)
    if report.min_slack() < -1e-12:
        raise PrecisionViolation(
            f"kernel bound failed by {-report.min_slack():.3e} at pair {witness}"
        )
    return report
