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
need no scan: their infima over the circle have a closed form.  Every
circle maximum of a positively weighted sum sum_j c_j / |zeta - a_j|,
that of frostman_sum, both of each perturbation trial and the Lebesgue
constant of interpolation (weights |1 / B'(a_j)|), comes from one engine
(_frostman_maxima); _frostman_scan is its one-scan case.  It makes
one pruned pass over the base grid per distinct zero set, which skips the
points that provably cannot be refinement seeds, merges its best points
with each scan's injected arguments, and refines all scans' seeds in
lockstep, each golden step's block of searches gathering the zero rows of
its own searches; the extrema equal those of each scan's full grid.  So a
centre sequence that many trials share is passed and searched once.  Every
Frostman sum at circle points comes from one kernel, built ROW_BLOCK rows
at a time (ROW_BLOCK * REFINE_SEEDS in the perturbation reports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .blaschke import COINCIDENCE_TOL, BlaschkeProduct, TargetVector, ZeroSequence, _nearest_pair, as_targets
from .errors import NearnessExceeded, ZeroCollision
from .geometry import TWO_PI, Buffers, CirclePoint, _depth, _in_row_blocks, _kernel, _rho, one_minus_abs_sq, wrap_angle
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
    "scan_circle",
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
        # sort and drop repeats: np.unique would import numpy.ma
        angles = np.sort(np.concatenate([base, np.asarray(self.extra_args)]))
        keep = np.ones(angles.size, dtype=bool)
        keep[1:] = angles[1:] != angles[:-1]
        return angles[keep]

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


def _trial_seeds(
    trial: np.ndarray, signed: np.ndarray, angles: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The REFINE_SEEDS candidates of largest signed value of each of count trials, best first.

    Candidates are tagged with the index of their trial, and each trial
    needs REFINE_SEEDS of them at least.  One sort by trial, then by value
    descending, then by argument puts equal values in argument order, which
    on a sorted grid is grid order.  The order is total, so the seeds depend
    neither on the sort's handling of ties nor on the order of the
    candidates.  Returns each trial's seed arguments and their values.
    """
    order = np.lexsort((angles, -signed, trial))
    sizes = np.bincount(trial, minlength=count)
    top = order[(np.cumsum(sizes) - sizes)[:, None] + np.arange(REFINE_SEEDS)]
    return angles[top], signed[top]


def _golden(
    evaluate: Callable[[np.ndarray], np.ndarray], seeds: np.ndarray, half_cell: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section searches on the cells [s - half_cell, s + half_cell] of the seeds s, in lockstep.

    Every step calls evaluate once, on the next argument of every search,
    and gets their values back.  Each search keeps the scalar search's
    arithmetic and its >=/</> tie rules, so its result depends only on its
    seed, half_cell, steps and the function it reads.  Returns the best
    value and its (unwrapped) argument per search.  With no steps nothing is
    evaluated, and every value is -inf, which never beats a grid value.
    """
    if steps == 0:
        return np.full(seeds.shape, -np.inf), seeds
    lo = seeds - half_cell
    hi = seeds + half_cell
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
    return val, arg


def _refine(
    seeds: np.ndarray, best_val: np.ndarray, val: np.ndarray, arg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge the golden searches of many scans into their grid maxima.

    Row s of seeds holds scan s's seed arguments, best first, best_val[s]
    its best grid value, and row s of val and arg the results of the
    searches on its seeds (_golden).  They merge into the scan's best in
    seed order, strict improvements only.  Returns the best value and its
    (unwrapped) argument per scan.
    """
    best_arg = seeds[:, 0]
    for j in range(seeds.shape[1]):
        better = val[:, j] > best_val
        best_val, best_arg = np.where(better, val[:, j], best_val), np.where(better, arg[:, j], best_arg)
    return best_val, best_arg


def scan_circle(
    f: Callable[[np.ndarray], np.ndarray],
    grid: CircleGrid,
    mode: str = "max",
) -> tuple[float, CirclePoint, np.ndarray]:
    """Estimate an extremum of a real function of the circle argument.

    f must map an array of arguments to an array of values.  Returns the
    extremal value, its argument, and the raw grid values; the result is
    never worse than the best bare grid point.  The maximum of sign * f
    is found: the grid is evaluated in one call, and the golden searches
    on its REFINE_SEEDS best cells run in lockstep, one call of f per step.
    """
    sign = 1.0 if mode == "max" else -1.0

    def signed(angles: np.ndarray) -> np.ndarray:
        return sign * np.asarray(f(angles), dtype=float)

    angles = grid.angles()
    values = signed(angles)
    seeds, top = _trial_seeds(np.zeros(angles.size, dtype=int), values, angles, 1)
    steps = GOLDEN_STEPS_PER_ROUND * grid.refinement_rounds
    val, arg = _golden(lambda x: signed(x % TWO_PI), seeds[0], math.pi / grid.base_count, steps)
    best_val, best_arg = _refine(seeds, top[:, 0], val[None, :], arg[None, :])
    return float(sign * best_val[0]), CirclePoint(float(best_arg[0])), sign * values


def _frostman_rows(
    zeta: np.ndarray, values: np.ndarray, weights: np.ndarray, buffers: Buffers, reach: Optional[np.ndarray] = None
) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Sum over the zeros w of weight_w / |zeta - w|, one row per point.

    With weights 1 - |w| this is the Frostman sum.  Entries are laid out
    points x zeros, the zeros on the last, contiguous axis, and each
    point's row is summed over that axis by itself, so a value does not
    depend on the other points of the call.  Batch axes broadcast: zeta
    (..., m) against values and weights (..., n) gives (..., m).  The
    entries are written into buffers.

    Given a reach per point, also return an upper bound of the sum over
    every point within that distance of zeta: the sum of
    weight_w / (|zeta - w| - reach), +inf when some zero lies within
    reach.  It reuses the distances of the sum itself.
    """
    shape = np.broadcast_shapes(zeta[..., :, None].shape, values[..., None, :].shape)
    gaps = buffers.take("complex", shape)
    dist = buffers.take("dist", shape, float)
    np.abs(np.subtract(zeta[..., :, None], values[..., None, :], out=gaps), out=dist)
    # the gaps are read: their memory takes the terms
    terms = buffers.take("complex", shape, float)
    sums = np.sum(np.divide(weights[..., None, :], dist, out=terms), axis=-1)
    if reach is None:
        return sums
    with np.errstate(divide="ignore", over="ignore"):
        np.maximum(np.subtract(dist, reach[..., None], out=terms), 0.0, out=terms)
        bound = np.sum(np.divide(weights[..., None, :], terms, out=terms), axis=-1)
    return sums, bound


def frostman_sum(a_seq: ZeroSequence, grid: Optional[CircleGrid] = None) -> CriterionReport:
    """Boundary supremum of sum over j of (1 - |a_j|) / |zeta - a_j|.

    The arguments of the sequence points are always injected into the
    candidate grid: the sum peaks where the points accumulate angularly,
    typically far between bare grid nodes for deep sequences.
    """
    grid = grid or CircleGrid()
    values = a_seq.values
    weights = _depth(values, a_seq._sizes)
    value, arg = _frostman_scan(values, weights, grid)
    witness = CirclePoint(arg)
    terms = weights / np.abs(witness.value - values)
    return CriterionReport(
        name="frostman",
        value=value,
        argmax_or_argmin=witness,
        per_index=tuple(float(t) for t in terms),
        grid_meta=grid.with_injected(a_seq),
    )


def _indexed(name: str, rows: np.ndarray, pick: Callable[[np.ndarray], int] = np.argmax) -> CriterionReport:
    """The report of the entry of rows that pick selects (the first maximum by default), witnessed by its index."""
    k = int(pick(rows))
    return CriterionReport(name=name, value=float(rows[k]), argmax_or_argmin=k, per_index=tuple(rows.tolist()))


def cohn_sum(a_seq: ZeroSequence) -> CriterionReport:
    """Supremum over the sequence itself of sum_k (1 - |a_k|) / |1 - conj(a_k) a_n|."""
    values, sizes = a_seq.values, a_seq._sizes
    weights = _depth(values, sizes)
    buffers = Buffers()

    def rows(block: slice) -> np.ndarray:
        shape = (values[block].size, values.size)
        gaps = np.subtract(values[block, None], values, out=buffers.take("gaps", shape))
        kernels = _kernel(values, sizes, gaps, buffers.take("kernels", shape))
        # the gaps are read: their memory takes the moduli
        dist = np.abs(kernels, out=buffers.take("gaps", shape, float))
        return np.sum(np.divide(weights, dist, out=dist), axis=1)

    return _indexed("cohn", _in_row_blocks(values.size, rows))


def dyakonov_sup(b: BlaschkeProduct, alpha: TargetVector) -> CriterionReport:
    """sup over k of |sum_j alpha_j / (B'(a_j) (1 - a_j conj(a_k)))|.

    The denominator conjugation is kept exactly in this printed form; a
    global conjugation of the index k would not change the supremum of
    absolute values.  1 - a_j conj(a_k) is the kernel of a_k at a_j, from
    the gaps a_j - a_k.
    """
    alpha = as_targets(alpha)
    if len(alpha) != b.degree:
        raise ValueError("alpha length must equal the degree")
    zeros, sizes = b.zeros.values, b.zeros._sizes
    coefficients = alpha.values * b._node_weights
    buffers = Buffers()

    def rows(block: slice) -> np.ndarray:
        shape = (zeros[block].size, zeros.size)
        gaps = np.subtract(zeros, zeros[block, None], out=buffers.take("gaps", shape))
        inner = _kernel(zeros[block, None], sizes[block, None], gaps, buffers.take("inner", shape))
        return np.abs(np.sum(np.divide(coefficients, inner, out=inner), axis=1))

    return _indexed("dyakonov", _in_row_blocks(zeros.size, rows))


def vasyunin_sum(a_seq: ZeroSequence) -> float:
    """sum of (1 - |a_n|) log(1 / (1 - |a_n|)), the truncated entropy sum."""
    depths = _depth(a_seq.values, a_seq._sizes)
    return float(-np.sum(depths * np.log(depths)))


def cross_modulus(b: BlaschkeProduct, z_seq: ZeroSequence) -> CriterionReport:
    """Smallest modulus of B over the other sequence: eta-hat = inf_j |B(z_j)|."""
    if b.degree and len(z_seq):
        nearest, j, k, _ = _nearest_pair(z_seq.values, z_seq._sizes, b.zeros.values)
        if nearest <= COINCIDENCE_TOL:
            raise ZeroCollision(f"z_{j} coincides with zero {k} of the product")
    return _indexed("cross_modulus", np.abs(b.evaluate(z_seq.values)), np.argmin)


def separation(paired: PairedSequences) -> CriterionReport:
    """Exact inf over all pairs (j, k) of rho(a_j, z_k), with the witness pair."""
    value, j, k, least = _nearest_pair(paired.A.values, paired.A._sizes, paired.Z.values)
    return CriterionReport(name="separation", value=value, argmax_or_argmin=(j, k), per_index=tuple(least.tolist()))


def nearness(paired: PairedSequences) -> CriterionReport:
    """Exact sup over n of rho(a_n, z_n), with the witness index."""
    return _indexed("nearness", paired.index_distances)


class _ZeroSets(NamedTuple):
    """Distinct zero sets, one row each, their positive weights, and the row of every given sequence.

    of() gives the Frostman weights 1 - |w|.  Sequences are told apart by
    the bytes of their values; row[i, j] is the row of sequence j of side i.
    """

    values: np.ndarray
    weights: np.ndarray
    row: np.ndarray

    @classmethod
    def of(cls, *sides: Sequence[ZeroSequence]) -> "_ZeroSets":
        keys = [[seq.values.tobytes() for seq in side] for side in sides]
        distinct = {key: seq for side, side_keys in zip(sides, keys) for seq, key in zip(side, side_keys)}
        index = {key: j for j, key in enumerate(distinct)}
        values = np.array([seq.values for seq in distinct.values()])
        weights = _depth(values, np.array([seq._sizes for seq in distinct.values()]))
        return cls(values, weights, np.array([[index[key] for key in side_keys] for side_keys in keys]))


def _pair_envelopes(a: np.ndarray, z: np.ndarray, r: float) -> dict[str, list]:
    """The fields of every trial's perturbation report that need no circle scan, one list each.

    Row t of a and z holds trial t's pair.  The lowest-index trial whose
    pair nearness exceeds r raises.  C3 and C4 are exact.  For |zeta| = 1,
    |1 - conj(z) zeta| = |zeta - z|, and the disc automorphism
    phi(w) = (a - w) / (1 - conj(a) w) maps the circle onto itself, with
    |zeta - z| / |1 - conj(a) zeta| = |phi(zeta) - phi(z)| |1 - conj(a) z| / (1 - |a|^2).
    Since |phi(z)| = rho(a, z), the infimum over the circle is
    (1 - rho) |1 - conj(a) z| / (1 - |a|^2) = (1 - |z|^2) / K, where
    K = |1 - conj(a) z| + |z - a| and
    |1 - conj(a) z|^2 = |z - a|^2 + (1 - |a|^2)(1 - |z|^2).  K is a sum of
    nonnegative terms, so it is free of cancellation.  The index-pair
    envelopes C1 and C2 are the extremes of (1 - rho(z_j, z_k)^2) /
    (1 - rho(a_j, a_k)^2) over each (trial, index) row, then over each
    trial, with 1 - rho(p, q)^2 = (1 - |p|^2)(1 - |q|^2) / |1 - conj(p) q|^2;
    the rows go ROW_BLOCK * REFINE_SEEDS at a time.
    """
    count, n = a.shape
    size_a = one_minus_abs_sq(a)
    size_z = one_minus_abs_sq(z)
    near = np.max(_rho(a, z, size_a, Buffers()), axis=1)
    far = np.flatnonzero(near > r * (1.0 + 1e-12) + 1e-15)
    if far.size:
        raise NearnessExceeded(f"pair nearness {near[far[0]]:.6g} exceeds the stated radius {r:.6g}")

    c_r = (1.0 + r) / (1.0 - r)

    violations = np.sum(size_z > c_r * size_a + 1e-12, axis=1) + np.sum(size_a > c_r * size_z + 1e-12, axis=1)
    ratios = size_z / size_a
    index = np.arange(count * n)
    buffers = Buffers()

    # Row (t, j) gathers trial t's points and sizes.  np.take in mode "clip" writes
    # straight into out (every index is in range); mode "raise" would copy out first.
    def closeness(points: np.ndarray, sizes: np.ndarray, t: np.ndarray, j: np.ndarray, name: str) -> np.ndarray:
        """1 - rho(p_tj, p_tk)^2 of rows (t, j) over k, from the kernels of the gaps p_tk - p_tj."""
        gaps = np.take(points, t, axis=0, out=buffers.take("gathered", (t.size, n)), mode="clip")
        own, own_size = points[t, j][:, None], sizes[t, j][:, None]
        kernel = _kernel(own, own_size, np.subtract(gaps, own, out=gaps), buffers.take("complex", gaps.shape))
        square = np.abs(kernel, out=buffers.take(name, gaps.shape, float))
        np.square(square, out=square)
        # the gathered points are read: their memory takes the gathered sizes
        gathered = np.take(sizes, t, axis=0, out=buffers.take("gathered", gaps.shape, float), mode="clip")
        return np.divide(np.multiply(own_size, gathered, out=gathered), square, out=square)

    def pair_extremes(rows: slice) -> np.ndarray:
        t, j = np.divmod(index[rows], n)
        near_z = closeness(z, size_z, t, j, "near_z")
        pair_ratios = np.divide(near_z, closeness(a, size_a, t, j, "near_a"), out=near_z)
        return np.array([pair_ratios.min(axis=1), pair_ratios.max(axis=1)])

    row_min, row_max = _in_row_blocks(count * n, pair_extremes, REFINE_SEEDS).reshape(2, count, n)
    pair_min, pair_max = row_min.min(axis=1), row_max.max(axis=1)
    gaps = z - a
    kernel = np.abs(_kernel(a, size_a, gaps, np.empty_like(gaps))) + np.abs(gaps)
    return dict(
        C_r=[c_r] * count,
        empirical_C1=pair_min.tolist(),
        empirical_C2=pair_max.tolist(),
        empirical_D1=ratios.min(axis=1).tolist(),
        empirical_D2=ratios.max(axis=1).tolist(),
        empirical_C3=np.min(size_z / kernel, axis=1).tolist(),
        empirical_C4=np.min(size_a / kernel, axis=1).tolist(),
        violations=violations.tolist(),
        r=[r] * count,
        nearness=near.tolist(),
    )


def _injected_args(points: np.ndarray, grid: CircleGrid, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid points of each trial off the base grid: sorted candidates per trial, and which to keep.

    Row t holds the extras of the grid and the arguments of row t of
    points, reduced to [0, 2*pi) as CircleGrid reduces them, sorted.  The
    mask drops those on the base grid and the repeats.
    """
    args = np.angle(points) % TWO_PI
    args[args == TWO_PI] = 0.0
    if grid.extra_args:
        args = np.concatenate([np.broadcast_to(grid.extra_args, (len(points), len(grid.extra_args))), args], axis=1)
    args.sort(axis=1)
    keep = base[np.minimum(np.searchsorted(base, args), base.size - 1)] != args
    keep[:, 1:] &= args[:, 1:] != args[:, :-1]
    return args, keep


def _base_seeds(
    values: np.ndarray,
    weights: np.ndarray,
    base: np.ndarray,
    centres: np.ndarray,
    reach: np.ndarray,
    group: int,
    buffers: Buffers,
) -> tuple[np.ndarray, np.ndarray]:
    """The REFINE_SEEDS best base points of one Frostman sum, best first, and their values.

    Only the points that can be among them are evaluated.  The base grid is
    cut into cells of CELL consecutive points; the cell of centres[c] holds
    every base point within reach[c] of it (_grid_pass).  A first pass
    evaluates the centres, with a bound of the sum over each cell.  Let T be
    the REFINE_SEEDS-th best centre value.  The other points of a cell are
    evaluated only when its bound, times 1 + BOUND_SLACK, reaches T.  A
    point left out has a computed value below T, so at least REFINE_SEEDS
    centres come before it, and under _trial_seeds' total order the result
    is that of the whole base grid, bit for bit.  Points go
    ROW_BLOCK * group at a time.
    """
    first, bound = _in_row_blocks(
        centres.size,
        lambda i: np.array(_frostman_rows(np.exp(1j * base[centres[i]]), values, weights, buffers, reach[i])),
        group,
    )
    threshold = np.partition(first, -REFINE_SEEDS)[-REFINE_SEEDS]
    # every cell but the last has CELL points, so the last takes what is left
    live = np.repeat(bound * (1.0 + BOUND_SLACK) >= threshold, CELL)[: base.size]
    live[centres] = False
    rest = np.flatnonzero(live)
    rest_values = _in_row_blocks(
        rest.size, lambda i: _frostman_rows(np.exp(1j * base[rest[i]]), values, weights, buffers), group
    )
    points = np.concatenate([centres, rest])
    seeds, top = _trial_seeds(np.zeros(points.size, dtype=int), np.concatenate([first, rest_values]), base[points], 1)
    return seeds[0], top[0]


def _grid_pass(zeros: _ZeroSets, injected: np.ndarray, grid: CircleGrid, group: int) -> tuple[np.ndarray, np.ndarray]:
    """The refinement seeds and the best grid value of every Frostman scan.

    Scan (i, t) is the sum of the zero set in row zeros.row[i, t], on the
    base grid plus the extras of grid and the arguments of row t of
    injected.  Each distinct zero set gets one base pass (_base_seeds): its
    REFINE_SEEDS best base points are the only base points that can be
    seeds of any of its scans, since each other base point has that many
    ahead of it on every scan's grid.  Each scan merges them with its own
    off-base points (_injected_args), all scans of one zero set in one
    _trial_seeds call.  So the seeds and best values are those of each
    scan's whole grid, bit for bit.  The kernel temporaries of every pass
    share one set of buffers.
    """
    base = replace(grid, extra_args=()).angles()
    starts = np.arange(0, base.size, CELL)
    sizes = np.diff(starts, append=base.size)
    # the arc to the farthest point of the cell bounds the chord; the slack
    # and 64 eps cover the rounding of the computed points and distances
    reach = sizes // 2 * (TWO_PI / base.size) * (1.0 + BOUND_SLACK) + 64 * np.finfo(float).eps
    centres = starts + sizes // 2
    args, keep = _injected_args(injected, grid, base)
    seeds = np.empty(zeros.row.shape + (REFINE_SEEDS,))
    best = np.empty(zeros.row.shape)
    buffers = Buffers()
    for row, (values, weights) in enumerate(zip(zeros.values, zeros.weights)):
        top_angles, top_values = _base_seeds(values, weights, base, centres, reach, group, buffers)
        side, trial = np.nonzero(zeros.row == row)
        extra_scan, extra = np.nonzero(keep[trial])[0], args[trial][keep[trial]]
        extra_values = _in_row_blocks(
            extra.size, lambda i: _frostman_rows(np.exp(1j * extra[i]), values, weights, buffers), group
        )
        picked, picked_values = _trial_seeds(
            np.concatenate([np.arange(trial.size).repeat(REFINE_SEEDS), extra_scan]),
            np.concatenate([np.tile(top_values, trial.size), extra_values]),
            np.concatenate([np.tile(top_angles, trial.size), extra]),
            trial.size,
        )
        seeds[side, trial], best[side, trial] = picked, picked_values[:, 0]
    return seeds, best


def _frostman_maxima(
    zeros: _ZeroSets, injected: np.ndarray, grid: CircleGrid, group: int
) -> tuple[np.ndarray, np.ndarray]:
    """The circle maximum and its (unwrapped) argument of every Frostman scan of _grid_pass.

    After the grid pass all golden-section searches run in lockstep, each
    against its own zeros.  A search depends only on its seed and its
    zeros, so a seed that scans of one zero set share is searched once for
    all of them.  At every step the searches go ROW_BLOCK * group at a
    time: a block gathers the rows of zeros and weights of its searches
    and sums each search's row by itself, so a value does not depend on
    the other searches.  Every step's blocks share one set of buffers.
    """
    seeds, best = _grid_pass(zeros, injected, grid, group)
    # each distinct (zero set, seed) once, found by sorting
    owner = np.repeat(zeros.row.ravel(), REFINE_SEEDS)
    starts = seeds.ravel()
    order = np.lexsort((starts, owner))
    owner, starts = owner[order], starts[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (starts[1:] != starts[:-1])
    search = np.empty(order.size, dtype=int)
    search[order] = np.cumsum(new) - 1
    owner = owner[new]
    buffers = Buffers()

    def sums(x: np.ndarray) -> np.ndarray:
        zeta = np.exp(1j * (x % TWO_PI))

        # np.take in mode "clip" writes straight into out (every index is in
        # range); mode "raise" would copy out first
        def block(rows: slice) -> np.ndarray:
            own = owner[rows]
            shape = (own.size, zeros.values.shape[1])
            values = np.take(zeros.values, own, axis=0, out=buffers.take("values", shape), mode="clip")
            weights = np.take(zeros.weights, own, axis=0, out=buffers.take("weights", shape, float), mode="clip")
            return _frostman_rows(zeta[rows, None], values, weights, buffers)[:, 0]

        return _in_row_blocks(owner.size, block, group)

    val, arg = _golden(
        sums,
        starts[new],
        math.pi / grid.base_count,
        GOLDEN_STEPS_PER_ROUND * grid.refinement_rounds,
    )
    scans = search.reshape(-1, REFINE_SEEDS)
    maxima, args = _refine(seeds.reshape(-1, REFINE_SEEDS), best.ravel(), val[scans], arg[scans])
    return maxima.reshape(best.shape), args.reshape(best.shape)


def _frostman_scan(values: np.ndarray, weights: np.ndarray, grid: CircleGrid) -> tuple[float, float]:
    """Circle maximum of sum_j weights_j / |zeta - values_j| and its (unwrapped) argument.

    One scan of _frostman_maxima, on the grid plus the arguments of the
    values, ROW_BLOCK points at a time.  The weights must be positive, as
    the pruned base pass bounds each cell's sum by its terms.
    """
    zeros = _ZeroSets(values[None, :], weights[None, :], np.zeros((1, 1), dtype=int))
    value, arg = _frostman_maxima(zeros, values[None, :], grid, 1)
    return float(value[0, 0]), float(arg[0, 0])


def _perturbation_scans(pairs: Sequence[PairedSequences]) -> tuple[_ZeroSets, np.ndarray]:
    """The two Frostman scans of every trial: the zero sets, A's side then Z's, and each trial's A and Z points."""
    zeros = _ZeroSets.of([p.A for p in pairs], [p.Z for p in pairs])
    return zeros, np.concatenate(zeros.values[zeros.row], axis=1)


def perturbation_reports(
    pairs: Sequence[PairedSequences], r: float, grid: Optional[CircleGrid] = None
) -> list[PerturbationReport]:
    """perturbation_report for many trials at once, each bit-identical to its report alone.

    All pairs must have the same length.  A failing trial raises the error
    of the lowest-index one.  C3 and C4 come in closed form; only the two
    Frostman sums are scanned, each on its trial's grid (the base grid plus
    the arguments of its A and Z points): two scans of _frostman_maxima per
    trial, ROW_BLOCK * REFINE_SEEDS points at a time.  A centre sequence
    that trials share is one zero set, so its base pass and its searches
    are done once.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius {r} must lie in (0, 1)")
    pairs = list(pairs)
    if len({len(p.A) for p in pairs}) > 1:
        raise ValueError("the pairs of one batch must have equal length")
    if not pairs:
        return []
    zeros, points = _perturbation_scans(pairs)
    columns = _pair_envelopes(*np.split(points, 2, axis=1), r)
    frostman, _ = _frostman_maxima(zeros, points, grid or CircleGrid(), REFINE_SEEDS)
    columns["frostman_A"], columns["frostman_Z"] = frostman.tolist()
    return [PerturbationReport(**dict(zip(columns, row))) for row in zip(*columns.values())]


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
