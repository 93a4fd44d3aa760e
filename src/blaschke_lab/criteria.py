"""Numerical evaluation of sequence conditions.

Carleson separation lives in the blaschke module; everything else that
characterizes a zero sequence is here: boundary Frostman sums, the Cohn
and Dyakonov forms, Vasyunin's entropy sum, the cross-modulus of one
product over another sequence, and the perturbation inequality report.

Suprema over the circle are estimated by a base grid with the arguments
of the sequence points injected as extra candidates, then sharpened by
golden-section refinement around the best grid cells.  Refinement only
ever adds candidate points, so reported extrema never decrease when the
grid is enlarged.  The boundary kernel ratios of a perturbation report
need no scan: their infima over the circle have a closed form.  Its two
Frostman scans skip the grid points that provably cannot be refinement
seeds, and the extrema they report equal those of the full grid.  Every
Frostman sum at circle points, in frostman_sum and in the perturbation
report, comes from one kernel, built ROW_BLOCK rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .blaschke import COINCIDENCE_TOL, BlaschkeProduct, TargetVector, ZeroSequence, _in_row_blocks, as_targets
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
    "perturbation_reports",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_SEEDS = 8
GOLDEN_STEPS_PER_ROUND = 16

# Consecutive base points per cell of the pruned Frostman grid pass, and the
# relative slack of its cell bounds: far above the kernel's rounding of
# about 30 eps, far below any gap between a bound and a grid value.  CELL
# must stay at most 32, so that the smallest base grid (256) still has
# REFINE_SEEDS cell centres.
CELL = 16
BOUND_SLACK = 1e-9


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

    C1, C2, D1 and D2 are envelopes over the given finite data.  C3 and C4
    are the exact infima over the circle and over n of
    |1 - conj(z_n) zeta| / |1 - conj(a_n) zeta| and of that ratio times
    (1 - |a_n|^2) / (1 - |z_n|^2), in closed form; both are at least
    1/C_r.  The Frostman sums are grid-scanned suprema.  The hard inequality
    with constant C_r = (1+r)/(1-r) is counted strictly, with 1e-12 slack
    for rounding.
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


def _grid_seeds(signed: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, float]:
    """The REFINE_SEEDS grid arguments of largest signed value, best first, and that value.

    Equal values go to the smaller argument first, which on a sorted grid
    is the earlier grid position.  The order is total, so the seeds depend
    neither on the sort's handling of ties nor on the order of the
    candidates.
    """
    order = np.lexsort((angles, -signed))[:REFINE_SEEDS]
    return angles[order], signed[order[0]]


def _refine(
    evaluate: Callable[[np.ndarray], np.ndarray],
    seeds: np.ndarray,
    best_val: np.ndarray,
    half_cell: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sharpen the grid maxima of many scans by golden-section searches in lockstep.

    Row s of seeds holds scan s's seed arguments, best first, and
    best_val[s] its best grid value.  One search runs on each seed's cell;
    every step calls evaluate once, on the next argument of every search
    (flattened row by row), and gets their values back.  Each search keeps
    the scalar search's arithmetic and its >=/</> tie rules, and merges into
    its scan's best in seed order, strict improvements only.  Returns the
    best value and its (unwrapped) argument per scan.
    """
    best_arg = seeds[:, 0]
    if steps == 0:
        return best_val, best_arg
    lo = seeds.ravel() - half_cell
    hi = seeds.ravel() + half_cell
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = evaluate(x1)
    f2 = evaluate(x2)
    first = f1 >= f2
    val, arg = np.where(first, f1, f2), np.where(first, x1, x2)
    for _ in range(steps):
        # right: the maximum lies right of x1, so lo moves to x1 and x2 is new
        right = f1 < f2
        lo = np.where(right, x1, lo)
        hi = np.where(right, hi, x2)
        step = GOLDEN * (hi - lo)
        x_new = np.where(right, lo + step, hi - step)
        f_new = evaluate(x_new)
        x1, x2 = np.where(right, x2, x_new), np.where(right, x_new, x1)
        f1, f2 = np.where(right, f2, f_new), np.where(right, f_new, f1)
        # the value kept from the last step was compared then and never beats val
        better = f_new > val
        val, arg = np.where(better, f_new, val), np.where(better, x_new, arg)
    val, arg = val.reshape(seeds.shape), arg.reshape(seeds.shape)
    for j in range(seeds.shape[1]):
        better = val[:, j] > best_val
        best_val, best_arg = np.where(better, val[:, j], best_val), np.where(better, arg[:, j], best_arg)
    return best_val, best_arg


def scan_columns(
    f: Callable[[np.ndarray], np.ndarray], grid: CircleGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Circle maxima of k functions of the argument at once, each as its scan alone finds it.

    f maps an array of arguments to a k x len array, one row per function.
    Returns the k maxima, their (unwrapped) arguments and the raw grid
    values.  The k * REFINE_SEEDS golden searches run in lockstep: each step
    calls f once, on the next argument of every search, and reads row c of
    its values only at the searches of function c.
    """
    angles = grid.angles()
    values = np.asarray(f(angles), dtype=float)
    k = values.shape[0]
    seeds, best = zip(*(_grid_seeds(row, angles) for row in values))

    def evaluate(x: np.ndarray) -> np.ndarray:
        own = np.asarray(f(x % TWO_PI), dtype=float).reshape(k, k, -1)
        return own[np.arange(k), np.arange(k)].ravel()

    best_val, best_arg = _refine(
        evaluate,
        np.array(seeds),
        np.array(best),
        math.pi / grid.base_count,
        GOLDEN_STEPS_PER_ROUND * grid.refinement_rounds,
    )
    return best_val, best_arg, values


def scan_circle(
    f: Callable[[np.ndarray], np.ndarray],
    grid: CircleGrid,
    mode: str = "max",
) -> tuple[float, CirclePoint, np.ndarray]:
    """Estimate an extremum of a real function of the circle argument.

    f must map an array of arguments to an array of values.  Returns the
    extremal value, its argument, and the raw grid values; the result is
    never worse than the best bare grid point.  The one-function case of
    scan_columns, on sign * f.
    """
    sign = 1.0 if mode == "max" else -1.0
    best_val, best_arg, values = scan_columns(lambda x: sign * np.asarray(f(x), dtype=float)[None, :], grid)
    return float(sign * best_val[0]), CirclePoint(float(best_arg[0])), sign * values[0]


def _frostman_rows(
    zeta: np.ndarray, values: np.ndarray, weights: np.ndarray, reach: Optional[np.ndarray] = None
) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Sum over the zeros w of weight_w / |zeta - w|, one row per point.

    With weights 1 - |w| this is the Frostman sum.  Entries are laid out
    points x zeros, the zeros on the last, contiguous axis, and each
    point's row is summed over that axis by itself, so a value does not
    depend on the other points of the call.  Batch axes broadcast: zeta
    (..., m) against values and weights (..., n) gives (..., m).

    Given a reach per point, also return an upper bound of the sum over
    every point within that distance of zeta: the sum of
    weight_w / (|zeta - w| - reach), +inf when some zero lies within
    reach.  It reuses the distances of the sum itself.
    """
    dist = np.abs(zeta[..., :, None] - values[..., None, :])
    sums = np.sum(weights[..., None, :] / dist, axis=-1)
    if reach is None:
        return sums
    with np.errstate(divide="ignore", over="ignore"):
        bound = np.sum(weights[..., None, :] / np.maximum(dist - reach[..., None], 0.0), axis=-1)
    return sums, bound


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
        return _in_row_blocks(angles, lambda block: _frostman_rows(np.exp(1j * block), values, weights))

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


class _TrialColumns(NamedTuple):
    """The zeros of a batch of trials and their Frostman weights 1 - |w|.

    Both arrays are laid out side x trials x zeros, side 0 holding A and
    side 1 holding Z.
    """

    values: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, pairs: list[PairedSequences]) -> "_TrialColumns":
        values = np.array([[p.A.values for p in pairs], [p.Z.values for p in pairs]])
        return cls(values, 1.0 - np.abs(values))


def _pair_envelopes(paired: PairedSequences, r: float) -> dict:
    """The fields of a perturbation report that need no circle scan.

    C3 and C4 are exact.  For |zeta| = 1, |1 - conj(z) zeta| = |zeta - z|,
    and the disc automorphism phi(w) = (a - w) / (1 - conj(a) w) maps the
    circle onto itself, with
    |zeta - z| / |1 - conj(a) zeta| = |phi(zeta) - phi(z)| |1 - conj(a) z| / (1 - |a|^2).
    Since |phi(z)| = rho(a, z), the infimum over the circle is
    (1 - rho) |1 - conj(a) z| / (1 - |a|^2) = (1 - |z|^2) / K, where
    K = |1 - conj(a) z| + |z - a| and
    |1 - conj(a) z|^2 = |z - a|^2 + (1 - |a|^2)(1 - |z|^2).  K is a sum of
    nonnegative terms, so it is free of cancellation.
    """
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
    kernel_a = np.abs(1.0 - np.conj(a)[:, None] * a[None, :]) ** 2
    kernel_z = np.abs(1.0 - np.conj(z)[:, None] * z[None, :]) ** 2
    pair_ratios = (np.outer(size_z, size_z) / kernel_z) / (np.outer(size_a, size_a) / kernel_a)
    gap = np.abs(z - a)
    kernel = np.sqrt(gap * gap + size_a * size_z) + gap
    return dict(
        C_r=c_r,
        empirical_C1=float(pair_ratios.min()),
        empirical_C2=float(pair_ratios.max()),
        empirical_D1=float(ratios.min()),
        empirical_D2=float(ratios.max()),
        empirical_C3=float(np.min(size_z / kernel)),
        empirical_C4=float(np.min(size_a / kernel)),
        violations=violations,
        r=r,
        nearness=near,
    )


def _injected_args(trial: np.ndarray, grid: CircleGrid, base: np.ndarray) -> np.ndarray:
    """The grid points of one trial off the base grid, sorted and without repeats.

    These are the extras of the grid and the arguments of the trial's A and
    Z points, reduced to [0, 2*pi) as CircleGrid reduces them.
    """
    args = np.angle(trial.ravel()) % TWO_PI
    args[args == TWO_PI] = 0.0
    args = np.sort(np.concatenate([grid.extra_args, args]))
    keep = base[np.minimum(np.searchsorted(base, args), base.size - 1)] != args
    keep[1:] &= args[1:] != args[:-1]
    return args[keep]


def _grid_pass(zeros: _TrialColumns, grid: CircleGrid) -> tuple[np.ndarray, np.ndarray]:
    """The refinement seeds and the best grid value of both Frostman sums of every trial.

    Each trial's grid is the base grid plus the arguments of its A and Z
    points, but only the points that can be seeds are evaluated.  The base
    grid is cut into cells of CELL consecutive points, each centred on one
    of them.  A first pass evaluates the centres and the off-base points,
    with a bound of each sum over each cell.  Let T be the REFINE_SEEDS-th
    best of those values.  The other points of a cell are evaluated only
    when its bound, times 1 + BOUND_SLACK, reaches T.  A point left out has
    a computed value below T, and T is at most the REFINE_SEEDS-th best
    value of the whole grid.  So under _grid_seeds' total order the seeds
    and best values are the whole grid's, bit for bit.
    """
    sides, count, _ = zeros.values.shape
    seeds = np.empty((sides, count, REFINE_SEEDS))
    best = np.empty((sides, count))
    base = replace(grid, extra_args=()).angles()
    base_zeta = np.exp(1j * base)
    starts = np.arange(0, base.size, CELL)
    sizes = np.diff(starts, append=base.size)
    centres = starts + sizes // 2
    # the arc to the farthest point of the cell bounds the chord; the slack
    # and 64 eps cover the rounding of the computed points and distances
    reach = sizes // 2 * (TWO_PI / base.size) * (1.0 + BOUND_SLACK) + 64 * np.finfo(float).eps
    for t in range(count):
        trial, weights = zeros.values[:, t], zeros.weights[:, t]
        extra = _injected_args(trial, grid, base)
        angles = np.concatenate([base[centres], extra])
        zeta = np.concatenate([base_zeta[centres], np.exp(1j * extra)])
        # the off-base points get reach 0: only the centres' bounds are read
        reaches = np.append(reach, np.zeros(extra.size))
        values, bound = _in_row_blocks(
            np.arange(zeta.size), lambda rows: np.array(_frostman_rows(zeta[rows], trial, weights, reaches[rows]))
        )
        for side in range(sides):
            threshold = np.partition(values[side], -REFINE_SEEDS)[-REFINE_SEEDS]
            live = np.repeat(bound[side, : centres.size] * (1.0 + BOUND_SLACK) >= threshold, sizes)
            live[centres] = False
            rest = np.flatnonzero(live)
            rest_values = _in_row_blocks(base_zeta[rest], lambda z: _frostman_rows(z, trial[side], weights[side]))
            seeds[side, t], best[side, t] = _grid_seeds(
                np.concatenate([values[side], rest_values]), np.concatenate([angles, base[rest]])
            )
    return seeds, best


def perturbation_reports(
    pairs: Sequence[PairedSequences], r: float, grid: Optional[CircleGrid] = None
) -> list[PerturbationReport]:
    """perturbation_report for many trials at once, each bit-identical to its report alone.

    All pairs must have the same length.  A failing trial raises the error
    of the lowest-index one.  C3 and C4 come in closed form; only the two
    Frostman sums are scanned.  Each trial scans its own grid (the base grid
    plus the arguments of its A and Z points), skipping the cells of base
    points that provably hold no refinement seed (_grid_pass), so its seeds
    and best grid values are the full grid's.  Then the 2 x REFINE_SEEDS
    golden-section searches of every trial run in lockstep, each sum
    evaluated on its own searches only.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius {r} must lie in (0, 1)")
    pairs = list(pairs)
    if len({len(p.A) for p in pairs}) > 1:
        raise ValueError("the pairs of one batch must have equal length")
    envelopes = [_pair_envelopes(p, r) for p in pairs]
    if not pairs:
        return []
    grid = grid or CircleGrid()
    zeros = _TrialColumns.of(pairs)
    seeds, best = _grid_pass(zeros, grid)
    # scan s (side-major, then trial) runs its searches against its own zeros,
    # ROW_BLOCK scans of REFINE_SEEDS points at a time
    n = zeros.values.shape[-1]
    values, weights = (column.reshape(-1, n) for column in zeros)

    def evaluate(x: np.ndarray) -> np.ndarray:
        zeta = np.exp(1j * (x % TWO_PI)).reshape(-1, REFINE_SEEDS)
        sums = _in_row_blocks(np.arange(len(zeta)), lambda s: _frostman_rows(zeta[s], values[s], weights[s]).T)
        return sums.T.ravel()

    best_val, _ = _refine(
        evaluate,
        seeds.reshape(-1, REFINE_SEEDS),
        best.ravel(),
        math.pi / grid.base_count,
        GOLDEN_STEPS_PER_ROUND * grid.refinement_rounds,
    )
    frostman_a, frostman_z = best_val.reshape(best.shape).tolist()
    return [
        PerturbationReport(**fields, frostman_A=frostman_a[t], frostman_Z=frostman_z[t])
        for t, fields in enumerate(envelopes)
    ]


def perturbation_report(
    paired: PairedSequences, r: float, grid: Optional[CircleGrid] = None
) -> PerturbationReport:
    """Empirical constants of the comparison chain between a sequence and its perturbation.

    Checks the two-sided size comparison with constant C_r = (1+r)/(1-r),
    records min/max envelopes for the kernel-product ratios over index
    pairs, takes the infima of the boundary kernel ratios in closed form,
    and scans the circle for both Frostman sums.  The one-trial case of
    perturbation_reports.
    """
    return perturbation_reports([paired], r, grid)[0]
