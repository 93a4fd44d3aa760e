"""Named zero sequences, interlaced unions, and perturbation sampling."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .blaschke import TargetVector, ZeroSequence, _nearest_pair, as_targets
from .errors import DuplicatePoint, PointOutsideDisk, SamplingExhausted, TruncationTooDeep
from .geometry import Buffers, _euclidean_disks, _rho, pairwise_rho

__all__ = [
    "DEPTH_CAP",
    "PairedSequences",
    "frostman_example",
    "radial_sequence",
    "interlace",
    "interlace_targets",
    "deinterlace",
    "deinterlace_targets",
    "perturb_sample",
]

# Beyond this depth 1 - |a_n| underflows double precision for the named
# generators; the near-boundary guard usually triggers sooner.
DEPTH_CAP = 60

# Seeds are non-negative ints fed to the standard library's Mersenne Twister,
# random.Random; CPython keeps random() the same sequence for the same int
# seed, so an identical seed means an identical, bit-exact sample stream.
Seed = int

RESAMPLING_ROUNDS = 1000


@dataclass(frozen=True)
class PairedSequences:
    """Two equal-length zero sequences compared index by index.

    The index-wise distances, nearness and separation are recomputed on
    access; the self-separation is the one Z measured when it was built.
    """

    A: ZeroSequence
    Z: ZeroSequence

    def __post_init__(self):
        if len(self.A) != len(self.Z):
            raise ValueError(
                f"paired sequences must have equal length ({len(self.A)} != {len(self.Z)})"
            )
        if len(self.A) == 0:
            raise ValueError("paired sequences must be nonempty")

    @property
    def index_distances(self) -> np.ndarray:
        """rho(a_n, z_n) for every n, without the full pairwise matrix."""
        return _rho(self.A.values, self.Z.values, self.A._sizes, Buffers())

    @property
    def nearness(self) -> float:
        """sup over n of rho(a_n, z_n)."""
        return float(np.max(self.index_distances))

    @property
    def separation(self) -> float:
        """inf over all pairs (j, k) of rho(a_j, z_k); the diagonal counts."""
        return _nearest_pair(self.A.values, self.A._sizes, self.Z.values)[0]

    @property
    def z_self_separation(self) -> float:
        return self.Z.min_separation


def frostman_example(n: int) -> ZeroSequence:
    """First n terms of (1 - 2^-k) exp(i 2^k / 3^k), k = 1..n.

    The tangential approach to the point 1 keeps the boundary sum bounded
    even though the radii accumulate at the circle.
    """
    _check_depth(n)
    radii = [1.0 - 0.5**k for k in range(1, n + 1)]
    phases = [(2.0**k) / (3.0**k) for k in range(1, n + 1)]
    return _generated([complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, phases)], n)


def radial_sequence(q: float, n: int, arg: float = 0.0) -> ZeroSequence:
    """Points (1 - q^k) exp(i arg), k = 1..n, all on one ray."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"ratio q = {q} must lie in (0, 1)")
    _check_depth(n)
    phase = complex(math.cos(arg), math.sin(arg))
    return _generated([(1.0 - q**k) * phase for k in range(1, n + 1)], n)


def _check_depth(n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one point, got n = {n}")
    if n > DEPTH_CAP:
        raise TruncationTooDeep(
            f"depth {n} exceeds the cap {DEPTH_CAP}; 1 - |a_n| underflows double precision"
        )


def _generated(points: list[complex], n: int) -> ZeroSequence:
    try:
        return ZeroSequence(points)
    except PointOutsideDisk as exc:
        raise TruncationTooDeep(
            f"depth {n} reaches the near-boundary guard: {exc}"
        ) from exc


def interlace(a_seq: ZeroSequence, z_seq: ZeroSequence) -> ZeroSequence:
    """Merge two sequences point by point: a_1, z_1, a_2, z_2, ...

    Raises DuplicatePoint when the merged set is not pairwise distinct.
    """
    if len(a_seq) != len(z_seq):
        raise ValueError("interlace requires equal lengths")
    merged = np.empty(2 * len(a_seq), dtype=complex)
    merged[0::2] = a_seq.values
    merged[1::2] = z_seq.values
    return ZeroSequence(merged)


def interlace_targets(alpha: TargetVector, beta: TargetVector) -> TargetVector:
    """Interleave target values exactly like their points."""
    alpha = as_targets(alpha)
    beta = as_targets(beta)
    if len(alpha) != len(beta):
        raise ValueError("interlace_targets requires equal lengths")
    merged = np.empty(2 * len(alpha), dtype=complex)
    merged[0::2] = alpha.values
    merged[1::2] = beta.values
    return TargetVector(merged)


def deinterlace(merged: ZeroSequence) -> tuple[ZeroSequence, ZeroSequence]:
    if len(merged) % 2:
        raise ValueError("deinterlace requires an even-length sequence")
    return merged[0::2], merged[1::2]


def deinterlace_targets(merged: TargetVector) -> tuple[TargetVector, TargetVector]:
    merged = as_targets(merged)
    if len(merged) % 2:
        raise ValueError("deinterlace_targets requires an even-length vector")
    return TargetVector(merged.values[0::2]), TargetVector(merged.values[1::2])


def perturb_sample(
    a_seq: ZeroSequence,
    r: float,
    seed: Seed,
    min_sep: float = 0.1,
) -> PairedSequences:
    """Draw z_n inside the pseudohyperbolic disk of radius r around a_n.

    Each z_n is uniform in the Euclidean parameterization of the image
    disk.  The whole vector is redrawn until the z's are rho-separated by
    at least min_sep, up to 1000 rounds; min_sep must stay below the
    self-separation of the centers or no draw can ever succeed reliably.
    A round with a draw past the boundary margin is redrawn as well.
    Each round draws all of its u's, then all of its t's, from
    random.Random(seed); seed must be a non-negative int.
    """
    # random.Random would seed None from the OS and -s like s
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed {seed!r} must be a non-negative int")
    if not 0.0 < r < 1.0:
        raise ValueError(f"perturbation radius {r} must lie in (0, 1)")
    if len(a_seq) == 0:
        raise ValueError("cannot perturb an empty sequence")
    if not min_sep < a_seq.min_separation:
        raise ValueError(
            f"min_sep = {min_sep} must be below the self-separation "
            f"{a_seq.min_separation:.6g} of the centers"
        )

    centers, radii = _euclidean_disks(a_seq.values, r)
    uniform = random.Random(seed).random
    count = len(a_seq)

    for _ in range(RESAMPLING_ROUNDS):
        u = np.array([uniform() for _ in range(count)])
        t = np.array([uniform() for _ in range(count)])
        draws = centers + radii * np.sqrt(u) * np.exp(2j * math.pi * t)
        if np.max(np.diag(pairwise_rho(a_seq.values, draws))) > r:
            continue
        try:
            z_seq = ZeroSequence(draws)
        except (DuplicatePoint, PointOutsideDisk):
            continue
        if z_seq.min_separation < min_sep:
            continue
        return PairedSequences(A=a_seq, Z=z_seq)

    raise SamplingExhausted(
        f"no rho-separated draw with min_sep = {min_sep} in {RESAMPLING_ROUNDS} rounds; "
        f"radius {r} is too large for the separation of the centers"
    )
