"""Numerical evaluation of sequence conditions.

Carleson separation lives in the blaschke module; everything else that
characterizes a zero sequence is here: boundary Frostman sums, the Cohn
and Dyakonov forms, Vasyunin's entropy sum, the cross-modulus of one
product over another sequence, and the perturbation inequality report.

Suprema over the circle are estimated by a base grid with the arguments
of the sequence points injected as extra candidates, then sharpened by
golden-section refinement around the best grid cells.  Refinement only
ever adds candidate points, so reported extrema never decrease when the
grid is enlarged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .blaschke import COINCIDENCE_TOL, BlaschkeProduct, TargetVector, ZeroSequence, as_targets
from .errors import NearnessExceeded, ZeroCollision
from .geometry import TWO_PI, CirclePoint, one_minus_abs_sq, pairwise_rho, wrap_angle
from .sequences import PairedSequences

__all__ = [
    "CircleGrid",
    "CriterionReport",
    "PerturbationReport",
    "frostman_sum",
    "cohn_sum",
    "dyakonov_sup",
    "vasyunin_sum",
    "cross_modulus",
    "separation",
    "nearness",
    "perturbation_report",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_SEEDS = 8
GOLDEN_STEPS_PER_ROUND = 16


@dataclass(frozen=True)
class CircleGrid:
    """Candidate arguments for circle extrema: 2*pi*k/base_count plus extras."""

    base_count: int = 4096
    refinement_rounds: int = 3
    extra_args: tuple[float, ...] = ()

    def __post_init__(self):
        if self.base_count < 256:
            raise ValueError(f"base_count = {self.base_count} must be at least 256")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be nonnegative")
        object.__setattr__(self, "extra_args", tuple(wrap_angle(a) for a in self.extra_args))

    def angles(self) -> np.ndarray:
        base = TWO_PI * np.arange(self.base_count) / self.base_count
        if not self.extra_args:
            return base
        return np.unique(np.concatenate([base, np.asarray(self.extra_args)]))

    def with_injected(self, *sequences: ZeroSequence) -> "CircleGrid":
        """A copy whose extras include the arguments of the given points."""
        extras = list(self.extra_args)
        for seq in sequences:
            extras.extend(np.angle(seq.values))
        return replace(self, extra_args=tuple(extras))


@dataclass(frozen=True)
class CriterionReport:
    """One evaluated sequence condition.

    argmax_or_argmin holds whatever witnesses the extremum: an index, an
    index pair, or a CirclePoint for grid-scanned boundary suprema.
    """

    name: str
    value: float
    argmax_or_argmin: Union[int, tuple[int, int], CirclePoint, None]
    per_index: tuple[float, ...]
    grid_meta: Optional[CircleGrid] = None


@dataclass(frozen=True)
class PerturbationReport:
    """Empirical constants of the perturbation comparison chain.

    The C and D figures are envelopes over the given finite data; the
    hard inequality with constant C_r = (1+r)/(1-r) is counted strictly,
    with 1e-12 slack for rounding.
    """

    C_r: float
    empirical_C1: float
    empirical_C2: float
    empirical_D1: float
    empirical_D2: float
    empirical_C3: float
    empirical_C4: float
    frostman_A: float
    frostman_Z: float
    violations: int
    r: float
    nearness: float


def _golden_refine(lo: float, hi: float, steps: int):
    """Golden-section maximum search, driven from outside.

    Yields each argument to evaluate and receives its signed value back;
    returns (best signed value, its argument).
    """
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = yield x1
    f2 = yield x2
    best_val, best_arg = (f1, x1) if f1 >= f2 else (f2, x2)
    for _ in range(steps):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = yield x2
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = yield x1
        if f1 > best_val:
            best_val, best_arg = f1, x1
        if f2 > best_val:
            best_val, best_arg = f2, x2
    return best_val, best_arg


def scan_circle(
    f: Callable[[np.ndarray], np.ndarray],
    grid: CircleGrid,
    mode: str = "max",
) -> tuple[float, CirclePoint, np.ndarray]:
    """Estimate an extremum of a real function of the circle argument.

    f must map an array of arguments to an array of values.  Returns the
    extremal value, its argument, and the raw grid values; the result is
    never worse than the best bare grid point.  The golden-section
    refinements around the best grid cells run in lockstep: each step
    calls f once, on the next argument of every search.
    """
    sign = 1.0 if mode == "max" else -1.0
    angles = grid.angles()
    values = np.asarray(f(angles), dtype=float)
    signed = sign * values
    order = np.argsort(signed)[::-1][:REFINE_SEEDS]
    best_val = float(signed[order[0]])
    best_arg = float(angles[order[0]])

    steps = GOLDEN_STEPS_PER_ROUND * grid.refinement_rounds
    if steps > 0:
        half_cell = math.pi / grid.base_count
        searches = [
            _golden_refine(center - half_cell, center + half_cell, steps)
            for center in angles[order].tolist()
        ]
        args = [next(search) for search in searches]
        results = []
        # every search takes 2 + steps evaluations, so all of them finish together
        while not results:
            step_values = sign * np.asarray(f(np.array(args) % TWO_PI), dtype=float)
            args = []
            for search, value in zip(searches, step_values.tolist()):
                try:
                    args.append(search.send(value))
                except StopIteration as done:
                    results.append(done.value)
        for val, arg in results:
            if val > best_val:
                best_val, best_arg = val, arg
    return sign * best_val, CirclePoint(best_arg), values


def frostman_sum(a_seq: ZeroSequence, grid: Optional[CircleGrid] = None) -> CriterionReport:
    """Boundary supremum of sum over j of (1 - |a_j|) / |zeta - a_j|.

    The arguments of the sequence points are always injected into the
    candidate grid: the sum peaks where the points accumulate angularly,
    typically far between bare grid nodes for deep sequences.
    """
    grid = (grid or CircleGrid()).with_injected(a_seq)
    values = a_seq.values
    weights = 1.0 - np.abs(values)

    def total(angles: np.ndarray) -> np.ndarray:
        zeta = np.exp(1j * angles)
        return np.sum(weights[None, :] / np.abs(zeta[:, None] - values[None, :]), axis=1)

    value, witness, _ = scan_circle(total, grid, mode="max")
    terms = weights / np.abs(witness.value - values)
    return CriterionReport(
        name="frostman",
        value=value,
        argmax_or_argmin=witness,
        per_index=tuple(float(t) for t in terms),
        grid_meta=grid,
    )


def cohn_sum(a_seq: ZeroSequence) -> CriterionReport:
    """Supremum over the sequence itself of sum_k (1 - |a_k|) / |1 - conj(a_k) a_n|."""
    values = a_seq.values
    weights = 1.0 - np.abs(values)
    kernels = np.abs(1.0 - np.conj(values)[None, :] * values[:, None])
    rows = np.sum(weights[None, :] / kernels, axis=1)
    n = int(np.argmax(rows))
    return CriterionReport(
        name="cohn",
        value=float(rows[n]),
        argmax_or_argmin=n,
        per_index=tuple(float(x) for x in rows),
    )


def dyakonov_sup(b: BlaschkeProduct, alpha: TargetVector) -> CriterionReport:
    """sup over k of |sum_j alpha_j / (B'(a_j) (1 - a_j conj(a_k)))|.

    The denominator conjugation is kept exactly in this printed form; a
    global conjugation of the index k would not change the supremum of
    absolute values.
    """
    alpha = as_targets(alpha)
    if len(alpha) != b.degree:
        raise ValueError("alpha length must equal the degree")
    zeros = b.zeros.values
    # B'(a_j) = b_j'(a_j) B_j(a_j), and b_j'(a_j) = prefactor_j / (1 - |a_j|^2).
    derivs = b._prefactors * b._node_cofactors / one_minus_abs_sq(zeros)
    inner = alpha.values[None, :] / (
        derivs[None, :] * (1.0 - zeros[None, :] * np.conj(zeros)[:, None])
    )
    rows = np.abs(np.sum(inner, axis=1))
    k = int(np.argmax(rows))
    return CriterionReport(
        name="dyakonov",
        value=float(rows[k]),
        argmax_or_argmin=k,
        per_index=tuple(float(x) for x in rows),
    )


def vasyunin_sum(a_seq: ZeroSequence) -> float:
    """sum of (1 - |a_n|) log(1 / (1 - |a_n|)), the truncated entropy sum."""
    gaps = 1.0 - np.abs(a_seq.values)
    return float(-np.sum(gaps * np.log(gaps)))


def cross_modulus(b: BlaschkeProduct, z_seq: ZeroSequence) -> CriterionReport:
    """Smallest modulus of B over the other sequence: eta-hat = inf_j |B(z_j)|."""
    if b.degree and len(z_seq):
        collisions = pairwise_rho(z_seq.values, b.zeros.values)
        if float(collisions.min()) <= COINCIDENCE_TOL:
            j, k = np.unravel_index(int(collisions.argmin()), collisions.shape)
            raise ZeroCollision(f"z_{j} coincides with zero {k} of the product")
    moduli = np.abs(b.evaluate(z_seq.values))
    j = int(np.argmin(moduli))
    return CriterionReport(
        name="cross_modulus",
        value=float(moduli[j]),
        argmax_or_argmin=j,
        per_index=tuple(float(m) for m in moduli),
    )


def separation(paired: PairedSequences) -> CriterionReport:
    """Exact inf over all pairs (j, k) of rho(a_j, z_k), with the witness pair."""
    dist = pairwise_rho(paired.A.values, paired.Z.values)
    j, k = np.unravel_index(int(dist.argmin()), dist.shape)
    return CriterionReport(
        name="separation",
        value=float(dist[j, k]),
        argmax_or_argmin=(int(j), int(k)),
        per_index=tuple(float(x) for x in dist.min(axis=1)),
    )


def nearness(paired: PairedSequences) -> CriterionReport:
    """Exact sup over n of rho(a_n, z_n), with the witness index."""
    dist = paired.index_distances
    n = int(np.argmax(dist))
    return CriterionReport(
        name="nearness",
        value=float(dist[n]),
        argmax_or_argmin=n,
        per_index=tuple(float(x) for x in dist),
    )


def perturbation_report(
    paired: PairedSequences, r: float, grid: Optional[CircleGrid] = None
) -> PerturbationReport:
    """Empirical constants of the comparison chain between a sequence and its perturbation.

    Checks the two-sided size comparison with constant C_r = (1+r)/(1-r),
    records min/max envelopes for the kernel-product ratios over index
    pairs, scans the circle for the boundary kernel ratios, and computes
    both Frostman sums on a shared grid.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius {r} must lie in (0, 1)")
    near = paired.nearness
    if near > r * (1.0 + 1e-12) + 1e-15:
        raise NearnessExceeded(
            f"pair nearness {near:.6g} exceeds the stated radius {r:.6g}"
        )

    a = paired.A.values
    z = paired.Z.values
    size_a = one_minus_abs_sq(a)
    size_z = one_minus_abs_sq(z)
    c_r = (1.0 + r) / (1.0 - r)

    violations = int(np.sum(size_z > c_r * size_a + 1e-12))
    violations += int(np.sum(size_a > c_r * size_z + 1e-12))

    ratios = size_z / size_a
    d1, d2 = float(ratios.min()), float(ratios.max())

    kernel_a = np.abs(1.0 - np.conj(a)[:, None] * a[None, :]) ** 2
    kernel_z = np.abs(1.0 - np.conj(z)[:, None] * z[None, :]) ** 2
    pair_ratios = (np.outer(size_z, size_z) / kernel_z) / (np.outer(size_a, size_a) / kernel_a)
    c1, c2 = float(pair_ratios.min()), float(pair_ratios.max())

    grid = (grid or CircleGrid()).with_injected(paired.A, paired.Z)

    def kernel_ratio(angles: np.ndarray) -> np.ndarray:
        zeta = np.exp(1j * angles)
        num = np.abs(1.0 - np.conj(z)[None, :] * zeta[:, None])
        den = np.abs(1.0 - np.conj(a)[None, :] * zeta[:, None])
        return np.min(num / den, axis=1)

    def weighted_ratio(angles: np.ndarray) -> np.ndarray:
        zeta = np.exp(1j * angles)
        num = size_a[None, :] * np.abs(1.0 - np.conj(z)[None, :] * zeta[:, None])
        den = size_z[None, :] * np.abs(1.0 - np.conj(a)[None, :] * zeta[:, None])
        return np.min(num / den, axis=1)

    c3, _, _ = scan_circle(kernel_ratio, grid, mode="min")
    c4, _, _ = scan_circle(weighted_ratio, grid, mode="min")

    return PerturbationReport(
        C_r=c_r,
        empirical_C1=c1,
        empirical_C2=c2,
        empirical_D1=d1,
        empirical_D2=d2,
        empirical_C3=float(c3),
        empirical_C4=float(c4),
        frostman_A=frostman_sum(paired.A, grid).value,
        frostman_Z=frostman_sum(paired.Z, grid).value,
        violations=violations,
        r=r,
        nearness=near,
    )
