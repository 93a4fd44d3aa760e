"""Pseudohyperbolic geometry on the open unit disk.

Distances, the disk automorphisms that realize them, and the Euclidean
description of pseudohyperbolic disks.  The size 1 - |z|^2, the depth
1 - |z| and the kernel 1 - conj(a) z are each formed once, exact to a few
eps up to the boundary margin (one_minus_abs_sq, _depth, _kernel), and so
are rho, 1 - rho^2 and beta.
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
    "pairwise_rho",
    "one_minus_abs_sq",
]

# Points closer to the circle than this are rejected: kernels and the
# tolerances built on them lose all meaning there.
BOUNDARY_MARGIN = 1e-15

TWO_PI = 2.0 * math.pi

# Rows per block of _in_row_blocks.  Every pass that reduces the rows of a
# points x N matrix goes through it: the closest-pair reduction (so the
# duplicate check and every separation), kernel_bounds_check, evaluate and
# the node cofactors (evaluate's product at each zero, its own factor read
# as 1), derivative (B times a sum, node hits exact), the interpolant's
# Cauchy sums, the Frostman sums (so the Lebesgue constant), cohn_sum and
# dyakonov_sup.
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


def _in_disk(values: np.ndarray) -> np.ndarray:
    """Whether each point is strictly inside the disk by DiskPoint's rule.

    np.hypot of the parts is what Python's abs of a complex computes (np.abs
    can differ in the last bit), so every decision is DiskPoint's.
    """
    re, im = values.real, values.imag
    return np.isfinite(re) & np.isfinite(im) & (np.hypot(re, im) < 1.0 - BOUNDARY_MARGIN)


def disk_values(points: Iterable[PointLike]) -> np.ndarray:
    """The points as a new complex array, checked at once by DiskPoint's rule (_in_disk) and error."""
    values = complex_vector(points)
    re, im = values.real, values.imag
    outside = ~_in_disk(values)
    if outside.any():
        first = int(outside.argmax())
        raise _outside_disk(float(re[first]), float(im[first]))
    return values


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
        return np.ndarray(shape, dtype, memory)


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


def one_minus_abs_sq(values) -> np.ndarray:
    """1 - |z|^2 of each point, as 1 - x^2 - y^2 with only the last two operations rounded: within an ulp.

    Each square splits error-free as x^2 = p + e (Dekker, Numer. Math. 18,
    1971), and p_x + p_y = s + t by TwoSum (Ogita, Rump and Oishi, SIAM J.
    Sci. Comput. 26, 2005); where 1 - s cancels it is exact (Sterbenz).
    """
    values = np.asarray(values, dtype=complex)
    parts = np.ascontiguousarray(values).view(float).reshape(values.shape + (2,))
    squares = parts * parts
    # Veltkamp's split by 2^27 + 1, into halves of 26 bits whose products are exact
    split = 134217729.0 * parts
    high = split - (split - parts)
    low = parts - high
    errors = ((high * high - squares) + 2.0 * high * low) + low * low
    p_x, p_y = squares[..., 0], squares[..., 1]
    total = p_x + p_y
    virtual = total - p_x
    tail = (p_x - (total - virtual)) + (p_y - virtual)
    return (1.0 - total) - ((tail + errors[..., 0]) + errors[..., 1])


def _depth(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """1 - |z| of each point, as (1 - |z|^2) / (1 + |z|) from its sizes one_minus_abs_sq(values)."""
    return sizes / (1.0 + np.abs(values))


def _kernel(a: np.ndarray, sizes: np.ndarray, gaps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 - conj(a) z as (1 - |a|^2) - conj(a) (z - a), from the gaps z - a, into out: exact to a few eps.

    a and its sizes broadcast against the gaps, so the zeros may run along
    either axis.  out must not be the gaps: numpy's in-place complex
    product of a single element takes another loop, with other bits.
    """
    np.multiply(np.conj(a), gaps, out=out)
    return np.subtract(sizes, out, out=out)


def rho(a: PointLike, z: PointLike) -> float:
    """Pseudohyperbolic distance |z - a| / |1 - conj(a) z|."""
    a, z = np.array([as_point(a).z]), np.array([as_point(z).z])
    return float(_rho(a, z, one_minus_abs_sq(a), Buffers())[0])


def beta(a: PointLike, z: PointLike) -> float:
    """Hyperbolic distance atanh(rho), as log1p(2 rho (1 + rho) / (1 - rho^2)) / 2.

    1 - rho^2 = (1 - |a|^2)(1 - |z|^2) / |1 - conj(a) z|^2 has no cancellation: a
    pair whose rho rounds to 1 keeps its finite distance, and a close one its digits.
    """
    points = np.array([as_point(a).z, as_point(z).z])
    sizes = one_minus_abs_sq(points)
    gap = points[1:] - points[:1]
    kernel = abs(complex(_kernel(points[:1], sizes[:1], gap, np.empty(1, dtype=complex))[0]))
    dist = abs(complex(gap[0])) / kernel
    return 0.5 * math.log1p(2.0 * dist * (1.0 + dist) / (sizes[0] * sizes[1] / kernel**2))


def mobius(a: PointLike, z: PointLike) -> DiskPoint:
    """The involutive automorphism (a - z) / (1 - conj(a) z) applied to z."""
    a, z = np.array([as_point(a).z]), np.array([as_point(z).z])
    gap = z - a
    return DiskPoint.from_complex(-gap[0] / _kernel(a, one_minus_abs_sq(a), gap, np.empty(1, dtype=complex))[0])


def _rho(a: np.ndarray, z: np.ndarray, sizes: np.ndarray, buffers: Buffers) -> np.ndarray:
    """rho(a, z) entry by entry, for complex arrays that broadcast together, written into buffers.

    sizes are one_minus_abs_sq(a), shaped like a.
    """
    shape = np.broadcast(a, z).shape
    gaps = np.subtract(z, a, out=buffers.take("gaps", shape))
    dist = np.abs(gaps, out=buffers.take("dist", shape, float))
    kernel = _kernel(a, sizes, gaps, buffers.take("kernel", shape))
    # the gaps are read: their memory takes |kernel|
    return np.divide(dist, np.abs(kernel, out=buffers.take("gaps", shape, float)), out=dist)


def pairwise_rho(a_values, z_values) -> np.ndarray:
    """Matrix of pseudohyperbolic distances, rows over a, columns over z."""
    a = np.asarray(a_values, dtype=complex).reshape(-1, 1)
    z = np.asarray(z_values, dtype=complex).reshape(1, -1)
    return _rho(a, z, one_minus_abs_sq(a), Buffers())


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
    radii = r * one_minus_abs_sq(centers) / denom
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
    signals a bug rather than bad input.  1 / |1 - conj(a) z| comes from
    the one kernel, ROW_BLOCK rows of a at a time.  The pair of least
    1 - rho^2 = (1 - |a|^2)(1 - |z|^2) / |1 - conj(a) z|^2 is the farthest,
    at beta's distance; the witness is the first pair in row-major order
    with the worst slack.
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
    # each check maps rows of a, their 1 / |1 - conj(a) z| and an output buffer to its values;
    # closeness is (1 - rho^2) / (1 - |a|^2), least on each row's farthest pair
    checks = {
        "closeness": lambda rows, inv, out: np.multiply(np.square(inv, out=out), size_z, out=out),
        "floor_slack": lambda rows, inv, out: np.subtract(mid_z, 1.0 - s, out=out),
        "z_kernel_slack": lambda rows, inv, out: np.subtract(inv, mid_z, out=out),
        "a_kernel_slack": lambda rows, inv, out: np.subtract(inv, mid_a[rows, None], out=out),
        "normalized_kernel_slack": lambda rows, inv, out: np.subtract(
            np.multiply(size_z, inv, out=out), 1.0 - s, out=out
        ),
    }
    buffers = Buffers()

    def inverse_kernels(rows: slice) -> np.ndarray:
        """1 / |1 - conj(a) z| of rows of a against every z."""
        shape = (a[rows].size, z.size)
        gaps = np.subtract(z, a[rows, None], out=buffers.take("gaps", shape))
        kernel = _kernel(a[rows, None], size_a[rows, None], gaps, buffers.take("kernel", shape))
        # the gaps are read: their memory takes 1 / |kernel|
        inv = np.abs(kernel, out=buffers.take("gaps", shape, float))
        return np.divide(1.0, inv, out=inv)

    def row_least(rows: slice) -> np.ndarray:
        inv = inverse_kernels(rows)
        out = buffers.take("check", inv.shape, float)
        return np.array([check(rows, inv, out).min(axis=1) for check in checks.values()])

    least = dict(zip(checks, _in_row_blocks(a.size, row_least)))
    least["closeness"] *= size_a

    def first_least(name: str) -> tuple[int, int]:
        """The first pair in row-major order where check name is least: its first row, then that row alone."""
        j = int(least[name].argmin())
        inv = inverse_kernels(slice(j, j + 1))
        return j, int(checks[name](slice(j, j + 1), inv, buffers.take("check", inv.shape, float)).argmin())

    j, k = first_least("closeness")
    sup_beta = beta(a[j], z[k])
    if sup_beta > r * (1.0 + 1e-12) + 1e-12:
        raise ValueError(
            f"pair at hyperbolic distance {sup_beta:.17g} exceeds the stated radius {r:.17g}"
        )

    worst = {name: float(least[name].min()) for name in checks if name != "closeness"}
    witness = first_least(min(worst, key=worst.get))
    report = KernelBoundsReport(s=s, witness=witness, **worst)
    if report.min_slack() < -1e-12:
        raise PrecisionViolation(
            f"kernel bound failed by {-report.min_slack():.3e} at pair {witness}"
        )
    return report
