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
from typing import Iterable, Union

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
    signals a bug rather than bad input.
    """
    a = disk_values(a_points)
    z = disk_values(z_points)
    if a.size == 0 or z.size == 0:
        raise ValueError("both point sets must be nonempty")
    if not 0.0 < r:
        raise ValueError(f"hyperbolic radius {r} must be positive")

    rho_mat = pairwise_rho(a, z)
    # rho near the circle can round to 1 or above it: capped, that is distance inf, not NaN.
    with np.errstate(divide="ignore"):
        sup_beta = float(np.max(np.arctanh(np.minimum(rho_mat, 1.0))))
    if sup_beta > r * (1.0 + 1e-12) + 1e-12:
        raise ValueError(
            f"pair at hyperbolic distance {sup_beta:.17g} exceeds the stated radius {r:.17g}"
        )

    s = math.tanh(r)
    inv_kernel = 1.0 / np.abs(1.0 - np.conj(a)[:, None] * z[None, :])
    mid_z = (1.0 - s * np.abs(z))[None, :] / one_minus_abs_sq(z)[None, :]
    mid_a = (1.0 - s * np.abs(a))[:, None] / one_minus_abs_sq(a)[:, None]

    slacks = {
        "floor_slack": np.broadcast_to(mid_z - (1.0 - s), rho_mat.shape),
        "z_kernel_slack": inv_kernel - mid_z,
        "a_kernel_slack": inv_kernel - mid_a,
        "normalized_kernel_slack": one_minus_abs_sq(z)[None, :] * inv_kernel - (1.0 - s),
    }

    worst = {name: float(np.min(grid)) for name, grid in slacks.items()}
    worst_name = min(worst, key=worst.get)
    flat = int(np.argmin(slacks[worst_name]))
    witness = (flat // z.size, flat % z.size)

    report = KernelBoundsReport(s=s, witness=witness, **worst)
    if report.min_slack() < -1e-12:
        raise PrecisionViolation(
            f"kernel bound failed by {-report.min_slack():.3e} at pair {witness}"
        )
    return report
