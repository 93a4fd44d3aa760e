"""Named zero sequences, interlaced unions, and perturbation sampling.

A perturbation trial draws z_n in the pseudohyperbolic disk of radius r
around each centre a_n from its own random.Random(seed), and redraws the
whole vector until it passes the radius, disk and separation tests.
Many trials are drawn together, one array pass per round, each with its
own stream, draw order and rejection rules, so each is bit-identical to
its trial drawn alone; perturb_sample is the one-trial case.  A round
measures rho(a_n, z_n) entry by entry and the draws' separation ROW_BLOCK
rows at a time, so no round holds an N x N matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blaschke import COINCIDENCE_TOL, TargetVector, ZeroSequence, _nearest_pair, as_targets
from .errors import PointOutsideDisk, SamplingExhausted, TruncationTooDeep
from .geometry import Buffers, _euclidean_disks, _in_disk, _in_row_blocks, _rho, one_minus_abs_sq

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
    random.Random(seed); seed must be a non-negative int.  The one-trial
    case of _perturb_samples.
    """
    return _perturb_samples(a_seq, r, [seed], min_sep)[0]


def _perturb_samples(
    a_seq: ZeroSequence,
    r: float,
    seeds: Sequence[Seed],
    min_sep: float = 0.1,
) -> list[PairedSequences]:
    """perturb_sample for every seed at once, each trial bit-identical to its sample alone.

    A round draws the u's, then the t's, of every trial still pending from
    its own random.Random(seed) and tests them all as arrays.  A trial's
    round is kept when its rho(a_n, z_n), formed entry by entry on the
    centres' sizes (the bits of the pairwise matrix's diagonal), are at
    most r; when its points pass disk_values' rule; and when its least
    separation, taken as ZeroSequence's check takes it (_least_separations),
    exceeds COINCIDENCE_TOL and is not below min_sep.  The kept points hold
    that least as their min_separation, so no sequence is checked twice.
    """
    for seed in seeds:
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
    count = len(a_seq)
    streams = [random.Random(seed).random for seed in seeds]
    samples: list[Optional[PairedSequences]] = [None] * len(streams)
    pending = np.arange(len(streams))
    buffers = Buffers()

    for _ in range(RESAMPLING_ROUNDS):
        if not pending.size:
            break
        drawn = np.array([[uniform() for _ in range(2 * count)] for uniform in [streams[i] for i in pending]])
        u, t = drawn[:, :count], drawn[:, count:]
        draws = centers + radii * np.sqrt(u) * np.exp(2j * math.pi * t)
        near = _rho(a_seq.values, draws, a_seq._sizes, buffers)
        fit = np.flatnonzero(~(np.max(near, axis=1) > r) & np.all(_in_disk(draws), axis=1))
        points = draws[fit]
        sizes = one_minus_abs_sq(points)
        least = _least_separations(points, sizes, buffers)
        kept = (least > COINCIDENCE_TOL) & ~(least < min_sep)
        for row in np.flatnonzero(kept):
            z_seq = ZeroSequence._subset(points[row], sizes[row])
            z_seq._min_separation = float(least[row])
            samples[pending[fit[row]]] = PairedSequences(A=a_seq, Z=z_seq)
        pending = np.delete(pending, fit[kept])

    if pending.size:
        raise SamplingExhausted(
            f"no rho-separated draw with min_sep = {min_sep} in {RESAMPLING_ROUNDS} rounds; "
            f"radius {r} is too large for the separation of the centers"
        )
    return samples


def _least_separations(points: np.ndarray, sizes: np.ndarray, buffers: Buffers) -> np.ndarray:
    """Least rho(p_tj, p_tk) over j != k of every row t of points, inf for a row of one point.

    sizes are one_minus_abs_sq(points).  Row (t, j) is rho from p_tj, with
    its size, to every p_tk: _nearest_pair's orientation and bits, so the
    least is ZeroSequence's min_separation of row t.  The (t, j) rows go
    ROW_BLOCK at a time.
    """
    count, n = points.shape
    flat, flat_sizes = points.ravel(), sizes.ravel()
    index = np.arange(count * n)

    # np.take in mode "clip" writes straight into out (every index is in range)
    def row_least(rows: slice) -> np.ndarray:
        t, j = np.divmod(index[rows], n)
        row = np.take(points, t, axis=0, out=buffers.take("row", (t.size, n)), mode="clip")
        dist = _rho(flat[rows, None], row, flat_sizes[rows, None], buffers)
        dist[np.arange(t.size), j] = np.inf
        return dist.min(axis=1)

    return _in_row_blocks(count * n, row_least).reshape(count, n).min(axis=1)
