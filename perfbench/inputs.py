"""Seeded input files for the benchmark workloads.

The program under test only ever sees the files written here; every
random choice comes from the workload seed, so one seed always yields
byte-identical inputs.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

# Independent generator streams per input, so adding an input to one
# workload never shifts the points of another.
_STREAM_DEEP = 1
_STREAM_UNSEPARATED = 2
_STREAM_ROTATED = 3


def random_zero_set(seed: int, stream: int, n: int, depth_lo: float, depth_hi: float) -> np.ndarray:
    """n points with 1 - |a| log-uniform in [depth_lo, depth_hi], argument uniform."""
    rng = np.random.default_rng([seed, stream])
    depth = np.exp(rng.uniform(math.log(depth_lo), math.log(depth_hi), n))
    arg = rng.uniform(0.0, 2.0 * math.pi, n)
    return (1.0 - depth) * np.exp(1j * arg)


def dyadic_zero_set(levels: int = 7, shifts=None) -> np.ndarray:
    """(1 - 2^-k) exp(2 pi i (j + s_k) / 2^k), j < 2^k, k = 1..levels.

    The shift s_k defaults to (k mod 2)/2; shifts overrides it per level.
    """
    points = []
    for k in range(1, levels + 1):
        count = 2**k
        radius = 1.0 - 2.0**-k
        shift = 0.5 * (k % 2) if shifts is None else float(shifts[k - 1])
        for j in range(count):
            points.append(radius * cmath.exp(2j * math.pi * (j + shift) / count))
    return np.array(points, dtype=complex)


def deep_set(seed: int) -> np.ndarray:
    """The check-deep zero set: N = 500, 1 - |a| in [1e-3, 0.5]."""
    return random_zero_set(seed, _STREAM_DEEP, 500, 1e-3, 0.5)


def rotated_dyadic_set(seed: int, levels: int = 7) -> np.ndarray:
    """The dyadic set with each level turned by a seeded share of its spacing.

    The radii and the spacing within a level do not change, so the set
    stays uniformly separated, like the dyadic set, for every seed.
    """
    rng = np.random.default_rng([seed, _STREAM_ROTATED])
    return dyadic_zero_set(levels, shifts=rng.uniform(0.0, 1.0, levels))


def unseparated_set(seed: int) -> np.ndarray:
    """The known-defect probe of interp-scan: N = 254, 1 - |a| in [1e-2, 0.5]."""
    return random_zero_set(seed, _STREAM_UNSEPARATED, 254, 1e-2, 0.5)


def write_sequence(path: Path, points: np.ndarray, name: str) -> None:
    """Write points in the CLI's sequence-file format; floats round-trip exactly."""
    payload = {
        "points": [{"re": float(w.real), "im": float(w.imag)} for w in points],
        "meta": {"name": name},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def frostman_centers(n: int) -> np.ndarray:
    """(1 - 2^-k) exp(i (2/3)^k), k = 1..n: the CLI's frostman_example generator."""
    k = np.arange(1, n + 1, dtype=float)
    return (1.0 - 0.5**k) * np.exp(1j * (2.0 / 3.0) ** k)
