"""Finite Blaschke products with numerically stable factor-wise evaluation.

A product is kept as its zero list and a unimodular rotation; nothing is
ever expanded into polynomial coefficients here, so evaluation stays
accurate arbitrarily close to the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DuplicatePoint, IndexOutOfRange
# ROW_BLOCK is named here too: blaschke.ROW_BLOCK is the block size of every row-block pass.
from .geometry import (
    ROW_BLOCK,
    Buffers,
    CirclePoint,
    DiskPoint,
    PointLike,
    _in_row_blocks,
    _kernel,
    _rho,
    complex_vector,
    disk_values,
    one_minus_abs_sq,
)

__all__ = [
    "COINCIDENCE_TOL",
    "ZeroSequence",
    "TargetVector",
    "BlaschkeProduct",
    "CarlesonReport",
]

# Two points closer than this (pseudohyperbolically) count as the same point.
COINCIDENCE_TOL = 1e-13


def _nearest_pair(
    a: np.ndarray, sizes: np.ndarray, z: Optional[np.ndarray] = None
) -> tuple[float, int, int, np.ndarray]:
    """Least rho(a_j, z_k), its first (j, k) in row-major order, and each row's least (z None: z = a, j != k).

    sizes are one_minus_abs_sq(a).  The row minima go ROW_BLOCK rows at a
    time; row j of the least is then computed alone for its first k.  Each
    entry has the bits of pairwise_rho's.
    """
    square = z is None
    z = a if square else z
    buffers = Buffers()

    def distances(block: slice) -> np.ndarray:
        dist = _rho(a[block, None], z[None, :], sizes[block, None], buffers)
        if square:
            diagonal = np.arange(dist.shape[0])
            dist[diagonal, block.start + diagonal] = np.inf
        return dist

    least = _in_row_blocks(a.size, lambda block: distances(block).min(axis=1))
    j = int(least.argmin())
    k = int(distances(slice(j, j + 1))[0].argmin())
    return float(least[j]), j, k, least


class ZeroSequence(Sequence[DiskPoint]):
    """An ordered list of pairwise distinct points of the unit disk, held as one complex array.

    Points within pseudohyperbolic distance 1e-13 of each other are
    rejected as duplicates.  The empty sequence is allowed so that the
    cofactor of a degree-one product (a constant) is representable;
    generators always produce at least one point.  Indexing and iteration
    build DiskPoints on demand.  The sizes 1 - |a|^2 are formed once, with
    the array, and a part takes its points' sizes from its parent's.
    """

    __slots__ = ("_values", "_sizes", "_min_separation")

    def __init__(self, points: Iterable[PointLike]):
        values = disk_values(points)
        self._adopt(values, one_minus_abs_sq(values))
        if len(self) > 1:
            nearest, j, k, _ = _nearest_pair(self._values, self._sizes)
            if nearest <= COINCIDENCE_TOL:
                raise DuplicatePoint(f"points {j} and {k} coincide (rho = {nearest:.3e})")
            self._min_separation = nearest

    @classmethod
    def _subset(cls, values: np.ndarray, sizes: np.ndarray) -> "ZeroSequence":
        """Points taken from a checked sequence, so distinct by construction, with their sizes: held without a check."""
        part = cls.__new__(cls)
        part._adopt(values, sizes)
        return part

    def _adopt(self, values: np.ndarray, sizes: np.ndarray) -> None:
        """Hold values and their sizes without checking them; min_separation is left to compute on demand."""
        values.setflags(write=False)
        sizes.setflags(write=False)
        self._values, self._sizes = values, sizes
        self._min_separation = math.inf if values.size < 2 else None

    @property
    def points(self) -> tuple[DiskPoint, ...]:
        return tuple(self)

    @property
    def values(self) -> np.ndarray:
        """Read-only complex array of the points."""
        return self._values

    @property
    def min_separation(self) -> float:
        """Smallest pairwise pseudohyperbolic distance (inf for fewer than 2 points).

        A subset computes it on first access: its value can be larger.
        """
        if self._min_separation is None:
            self._min_separation = _nearest_pair(self._values, self._sizes)[0]
        return self._min_separation

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ZeroSequence._subset(self._values[index], self._sizes[index])
        return DiskPoint.from_complex(self._values[index])

    def __iter__(self):
        return map(DiskPoint.from_complex, self._values.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZeroSequence):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        return f"ZeroSequence({self._values.tolist()!r})"


class TargetVector(Sequence[complex]):
    """Complex target values aligned index-for-index with a zero sequence."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[complex]):
        vals = complex_vector(values)
        if vals.size and not np.all(np.isfinite(vals.view(float))):
            raise ValueError("target values must be finite")
        self._values = vals
        self._values.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self._values))) if self._values.size else 0.0

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TargetVector(self._values[index])
        return complex(self._values[index])

    def __add__(self, other: "TargetVector") -> "TargetVector":
        other = as_targets(other)
        return TargetVector(self._values + other.values)

    def __rmul__(self, scalar: complex) -> "TargetVector":
        return TargetVector(complex(scalar) * self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TargetVector):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        return f"TargetVector({self._values.tolist()!r})"


def as_targets(values: Union[TargetVector, Iterable[complex]]) -> TargetVector:
    if isinstance(values, TargetVector):
        return values
    return TargetVector(values)


@dataclass(frozen=True)
class CarlesonReport:
    """Per-zero uniform-separation quantities and their infimum delta."""

    per_zero: tuple[tuple[int, float], ...]
    delta: float


class BlaschkeProduct:
    """A finite Blaschke product: rotation times one factor per zero.

    Each factor is (|a|/(-a)) (z - a) / (1 - conj(a) z), reducing to z for
    a zero at the origin.  Evaluation accepts scalars or numpy arrays of
    finite points in the closed disk and multiplies factors directly;
    cofactors share the rotation.  Instances are immutable, so the node
    cofactors B_j(a_j), evaluate's product at a_j with the own factor (an
    exact 0) read as 1, and the node weights w_j = 1 / B'(a_j) are computed
    once, at construction.  The weights give the Lagrange basis of K_B in
    Cauchy form, L_j(z) = B(z) w_j / (z - a_j).
    """

    __slots__ = ("_zeros", "_rotation", "_prefactors", "_node_cofactors", "_node_weights")

    def __init__(
        self,
        zeros: Union[ZeroSequence, Iterable[PointLike]],
        rotation: Union[CirclePoint, complex] = CirclePoint(0.0),
    ):
        if not isinstance(zeros, ZeroSequence):
            zeros = ZeroSequence(zeros)
        if not isinstance(rotation, CirclePoint):
            rotation = CirclePoint.from_complex(rotation)
        self._zeros = zeros
        self._rotation = rotation
        zs = zeros.values
        # |a|/(-a) per factor, taken as 1 for a zero at the origin.
        safe = np.where(zs == 0, 1.0, zs)
        self._prefactors = np.where(zs == 0, 1.0, -np.abs(zs) / safe)
        self._prefactors.setflags(write=False)
        rotation = self._rotation.value
        buffers = Buffers()

        def node_cofactors(rows: slice) -> np.ndarray:
            # row i of the block is evaluate's product at a_j, j = rows.start + i,
            # with its own factor, an exact 0 in column j, read as 1
            factors = self._factors(zs[rows], buffers)
            own = np.arange(factors.shape[0])
            factors[own, rows.start + own] = 1.0
            return rotation * np.prod(factors, axis=1)

        self._node_cofactors = _in_row_blocks(zs.size, node_cofactors)
        self._node_cofactors.setflags(write=False)
        # B'(a_j) = b_j'(a_j) B_j(a_j), and b_j'(a_j) = prefactor_j / (1 - |a_j|^2).
        self._node_weights = zeros._sizes / (self._prefactors * self._node_cofactors)
        self._node_weights.setflags(write=False)

    @property
    def zeros(self) -> ZeroSequence:
        return self._zeros

    @property
    def rotation(self) -> CirclePoint:
        return self._rotation

    @property
    def degree(self) -> int:
        return len(self._zeros)

    def __repr__(self) -> str:
        return f"BlaschkeProduct(degree={self.degree}, rotation_arg={self._rotation.arg:.6g})"

    def _coerce_arg(self, z) -> tuple[np.ndarray, bool]:
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        # a NaN fails the comparison, so non-finite points are rejected too
        if not np.all(np.abs(arr) <= 1.0 + 1e-9):
            raise ValueError("evaluation points must lie in the closed unit disk")
        return arr, scalar

    def _factors(self, z: np.ndarray, buffers: Buffers) -> np.ndarray:
        """Matrix of single-factor values, rows over points, columns over zeros, written into buffers."""
        zs = self._zeros.values
        shape = (z.size, zs.size)
        gaps = np.subtract(z[:, None], zs[None, :], out=buffers.take("gaps", shape))
        kernel = _kernel(zs[None, :], self._zeros._sizes[None, :], gaps, buffers.take("factors", shape))
        # No complex product is written over one of its factors: numpy's in-place
        # product of a single element takes another loop, with other bits.  numpy
        # has one loop for the complex quotient, so the quotient takes the gaps' memory.
        return np.multiply(self._prefactors[None, :], np.divide(gaps, kernel, out=gaps), out=kernel)

    def evaluate(self, z) -> Union[complex, np.ndarray]:
        """B(z), factor by factor, for |z| <= 1."""
        arr, scalar = self._coerce_arg(z)
        rotation = self._rotation.value
        buffers = Buffers()
        result = _in_row_blocks(arr.size, lambda rows: rotation * np.prod(self._factors(arr[rows], buffers), axis=1))
        return complex(result[0]) if scalar else result

    __call__ = evaluate

    def derivative(self, z) -> Union[complex, np.ndarray]:
        """B'(z) = B(z) sum over j of (1 - |a_j|^2) / ((z - a_j)(1 - conj(a_j) z)), for |z| <= 1.

        Each term is b_j'(z) / b_j(z), the kernel 1 - conj(a_j) z formed from
        the gaps z - a_j (_kernel).  At a zero, z - a_j == 0 exactly, B'(a_j)
        is 1 / w_j from the node weights.
        """
        arr, scalar = self._coerce_arg(z)
        zs = self._zeros.values
        sizes = self._zeros._sizes
        outer = self.evaluate(arr)
        buffers = Buffers()

        def rows(block: slice) -> np.ndarray:
            points = arr[block]
            shape = (points.size, zs.size)
            gaps = np.subtract(points[:, None], zs, out=buffers.take("gaps", shape))
            kernel = _kernel(zs, sizes, gaps, buffers.take("kernel", shape))
            hits = np.equal(gaps, 0, out=buffers.take("hits", shape, bool))
            np.copyto(gaps, 1.0, where=hits)
            terms = np.divide(sizes, np.multiply(gaps, kernel, out=buffers.take("terms", shape)), out=kernel)
            out = outer[block] * np.sum(terms, axis=1)
            # a zero's sum has a pole: its B' is the node's
            point, node = np.nonzero(hits)
            out[point] = 1.0 / self._node_weights[node]
            return out

        result = _in_row_blocks(arr.size, rows)
        return complex(result[0]) if scalar else result

    def cofactor(self, j: int) -> "BlaschkeProduct":
        """The product with zero j removed, same rotation."""
        j = self._check_index(j)
        zeros = self._zeros
        rest = ZeroSequence._subset(np.delete(zeros.values, j), np.delete(zeros._sizes, j))
        return BlaschkeProduct(rest, self._rotation)

    def carleson(self) -> CarlesonReport:
        """Uniform-separation quantities (1 - |a_j|^2) |B'(a_j)| and their infimum.

        Each normalized factor has (1 - |a_j|^2) |b_j'(a_j)| = 1, so the
        quantity is |B_j(a_j)| = prod over k != j of rho(a_j, a_k): the
        modulus of the node cofactor.
        """
        if self.degree == 0:
            raise ValueError("carleson report requires at least one zero")
        per_zero = tuple(enumerate(np.abs(self._node_cofactors).tolist()))
        delta = min(q for _, q in per_zero)
        return CarlesonReport(per_zero=per_zero, delta=delta)

    def _check_index(self, j: int) -> int:
        j = int(j)
        if not 0 <= j < self.degree:
            raise IndexOutOfRange(
                f"zero index {j} outside range 0..{self.degree - 1}"
            )
        return j
