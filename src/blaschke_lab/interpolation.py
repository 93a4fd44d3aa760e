"""Constructive interpolation in finite model spaces.

For a finite Blaschke product B of degree N the model space K_B is the
N-dimensional span of the Cauchy kernels at the zeros, and the unique
element matching prescribed node values has the closed Lagrange form

    f(z) = sum_j alpha_j (B_j(z) / B_j(a_j)) (1 - |a_j|^2) / (1 - conj(a_j) z)

with B_j the cofactor at zero j.  It is the one form an interpolant is
held in.  With w_j = 1 / B'(a_j) it is evaluated in Cauchy form (the first,
modified Lagrange form of Berrut and Trefethen),

    f(z) = B(z) sum_j alpha_j w_j / (z - a_j),

which needs no cofactor at the evaluation point.  On the circle |B| = 1,
so |f| there is the modulus of the Cauchy column sum alone, and the
Lagrange row sum sum_j |L_j| is a Frostman sum with weights |w_j|: the
norm constant of the interpolation map (the Lebesgue constant) is its
maximum, found by the Frostman engine of criteria.  The union
construction, which interpolates across two disjoint zero sets at once,
is the interpolant of the merged product in the same form.  On top of
the one form this module also builds the iterative scheme that
transports an interpolant to a nearby node set (each step evaluates the
interpolant of the residual at the nodes), and the preimages of a point
under B, found all at once by the product's lockstep Ehrlich-Aberth sweeps.
Like the product itself, every one of these is built from the zeros in
factored form; no polynomial is ever expanded.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .blaschke import COINCIDENCE_TOL, BlaschkeProduct, TargetVector, ZeroSequence, _nearest_pair, as_targets
from .criteria import CircleGrid, _frostman_scan, scan_circle
from .errors import (
    ContractionViolated,
    MaxIterExceeded,
    PointOutsideDisk,
    RootVerificationFailed,
    SeparationTooSmall,
    ZeroCollision,
)
from .geometry import Buffers, CirclePoint, PointLike, _in_row_blocks, as_point, wrap_angle
from .sequences import PairedSequences

__all__ = [
    "InterpolantRep",
    "UnionConstruction",
    "IterationTrace",
    "solve_kb",
    "sup_norm",
    "lebesgue_constant",
    "interpolate_union",
    "nearby_iterate",
    "frostman_shift_zeros",
]

KB_ACCURACY = 1e-6
"""The accuracy the package claims for K_B interpolants, relative to sup|alpha|."""
UNION_SEPARATION_FLOOR = 1e-6
ROOT_RESIDUAL_TOL = 1e-8
# Roots whose argument is within this of 0 sort as real positive, by modulus:
# a rounding-level Im w must not decide their order.
ROOT_ARG_TOL = 1e-12


class InterpolantRep:
    """An element of K_B held in Lagrange form.

    lagrange_coeffs are exactly the node values.  The value
    sum_j alpha_j L_j(z) is evaluated in Cauchy form,
    B(z) sum_j gamma_j / (z - a_j) with gamma_j = alpha_j / B'(a_j), and
    carries rounding error up to about N eps Lambda sup|alpha|, with Lambda
    the Lebesgue constant of the space: the sup of sum_j |w_j| / |zeta - a_j|
    on the circle, which also bounds the column alone that circle_modulus
    takes.  A node returns its value exactly.
    """

    __slots__ = ("space", "lagrange_coeffs")

    def __init__(self, space: BlaschkeProduct, lagrange_coeffs: TargetVector):
        self.space = space
        self.lagrange_coeffs = lagrange_coeffs

    def __call__(self, z) -> Union[complex, np.ndarray]:
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        # B(z), which also rejects points outside the closed disk
        result = self._column(arr, self.space.evaluate(arr))
        return complex(result[0]) if np.ndim(z) == 0 else result

    def circle_modulus(self, angles: np.ndarray) -> np.ndarray:
        """|f(e^{i angles})|: on the circle |B| = 1, so the modulus of the Cauchy column alone."""
        return np.abs(self._column(np.exp(1j * np.asarray(angles, dtype=float))))

    def _column(self, arr: np.ndarray, outer: Optional[np.ndarray] = None) -> np.ndarray:
        """outer times sum_j gamma_j / (z - a_j) at each point, ROW_BLOCK points at a time; a node gets its value."""
        zeros = self.space.zeros.values
        alpha = self.lagrange_coeffs.values
        gamma = alpha * self.space._node_weights
        buffers = Buffers()

        def values(rows: slice) -> np.ndarray:
            shape = (arr[rows].size, zeros.size)
            gaps = np.subtract(arr[rows, None], zeros, out=buffers.take("complex", shape))
            hits = np.equal(gaps, 0, out=buffers.take("hits", shape, bool))
            np.copyto(gaps, 1.0, where=hits)
            out = np.sum(np.divide(gamma, gaps, out=gaps), axis=1)
            if outer is not None:
                # not *=: numpy's in-place product of one element has other bits (BlaschkeProduct._factors)
                out = outer[rows] * out
            # a node's sum has a pole: the node gets its value exactly
            point, node = np.nonzero(hits)
            out[point] = alpha[node]
            return out

        return _in_row_blocks(arr.size, values)

    def __repr__(self) -> str:
        return f"InterpolantRep(degree={self.space.degree})"


@dataclass(frozen=True)
class UnionConstruction:
    """Interpolant across two disjoint zero sets, G = G1 + G2, in the merged product's space.

    G, G1 and G2 are interpolants of the one product BC: G takes both
    target sets, G1 the first with zeros on the second zero set, G2 the
    second with zeros on the first.  tilde_gamma stores the conjugated
    normalized coefficients in interleaved order (even slots from the
    first set, odd from the second).
    """

    B: BlaschkeProduct
    C: BlaschkeProduct
    tilde_gamma: tuple[complex, ...]
    G: InterpolantRep
    G1: InterpolantRep
    G2: InterpolantRep

    def __call__(self, z):
        return self.G(z)


@dataclass(frozen=True)
class IterationTrace:
    """Per-step residual history of the nearby-node iteration.

    bound_curve[m] = sup|alpha| (2 M (1 - epsilon))^m is the geometric
    envelope guaranteed when nearness = 1 - epsilon stays below 1/(2M);
    in the marginal band beyond that threshold the curve is recorded but
    carries no guarantee (contraction_marginal is then set).
    """

    residual_sup: tuple[float, ...]
    bound_curve: tuple[float, ...]
    M_used: float
    epsilon_used: float
    contraction_marginal: bool = False


def solve_kb(b: BlaschkeProduct, targets) -> InterpolantRep:
    """The unique element of K_B taking the given values at the zeros of B.

    Its Lagrange coefficients are the targets themselves, so nothing is
    solved: the targets are checked against the degree and wrapped.
    """
    alpha = as_targets(targets)
    if len(alpha) != b.degree:
        raise ValueError(
            f"target length {len(alpha)} does not match degree {b.degree}"
        )
    if b.degree == 0:
        raise ValueError("cannot interpolate on a degree-zero product")
    return InterpolantRep(space=b, lagrange_coeffs=alpha)


def sup_norm(f, grid: Optional[CircleGrid] = None) -> float:
    """Estimated sup of |f| over the unit circle, never below the grid max.

    f may be an InterpolantRep, a UnionConstruction (whose G is scanned),
    or any callable that accepts an array of circle points.  An
    interpolant's zeros join the grid by their arguments, and its modulus
    is its circle_modulus, which needs no B.
    """
    grid = grid or CircleGrid()
    f = f.G if isinstance(f, UnionConstruction) else f
    if isinstance(f, InterpolantRep):
        grid = grid.with_injected(f.space.zeros)
        magnitude = f.circle_modulus
    else:
        def magnitude(angles: np.ndarray) -> np.ndarray:
            return np.abs(f(np.exp(1j * angles)))

    value, _, _ = scan_circle(magnitude, grid, mode="max")
    return float(value)


@functools.lru_cache(maxsize=1)
def lebesgue_constant(b: BlaschkeProduct, grid: Optional[CircleGrid] = None) -> float:
    """Circle supremum of the absolute Lagrange basis row sum, clamped to >= 1.

    This is the norm of the interpolation map from bounded node values to
    (K_B, sup norm): the worst target vector aligns all basis phases at
    the maximizing circle point.  On the circle |B| = 1, so the row sum is
    sum_j |w_j| / |zeta - a_j| with w_j = 1 / B'(a_j): a Frostman sum with
    weights |w_j|, scanned by the Frostman engine on the grid plus the
    zeros' arguments.  Degree one has the closed form 1 + |a_0|, which the
    scan can miss by an ulp where a computed circle point has modulus
    below 1.  The last value is kept: a product is immutable and hashed by
    identity, and a grid is a frozen dataclass, so nearby_iterate reuses
    the scan its caller made for the radius.
    """
    if b.degree == 0:
        raise ValueError("lebesgue constant requires at least one zero")
    zeros = b.zeros.values
    if b.degree == 1:
        return 1.0 + abs(complex(zeros[0]))
    value, _ = _frostman_scan(zeros, np.abs(b._node_weights), grid or CircleGrid())
    return max(value, 1.0)


def interpolate_union(
    b: BlaschkeProduct,
    c: BlaschkeProduct,
    alpha,
    beta,
) -> UnionConstruction:
    """Interpolate alpha on the zeros of B and beta on the zeros of C at once.

    K_BC = K_C + C K_B, so the paper's G = G1 + G2, with G1 = C * (the K_B
    interpolant of alpha_j / C(a_j)) and G2 = B * (the K_C interpolant of
    beta_k / B(z_k)), is the interpolant of (alpha, beta) on the zeros of
    the merged product D = BC; G1 and G2 are those of (alpha, 0) and
    (0, beta).  Each takes its node values exactly.  tilde_gamma holds

        tilde_gamma_a[j] = (-conj(a_j)/|a_j|) conj(alpha_j / C(a_j)) / conj(B_j(a_j))

    (origin convention as in the product factors) and the symmetric
    C-side expression, which with gamma_j = alpha_j / D'(a_j) is
    conj(gamma_j) / (1 - |a_j|^2).
    """
    alpha = as_targets(alpha)
    beta = as_targets(beta)
    if len(alpha) != b.degree or len(beta) != c.degree:
        raise ValueError("target lengths must match the two degrees")
    if b.degree == 0 or c.degree == 0:
        raise ValueError("both products need at least one zero")

    a_vals = b.zeros.values
    z_vals = c.zeros.values
    sep, j, k, _ = _nearest_pair(a_vals, b.zeros._sizes, z_vals)
    if sep <= COINCIDENCE_TOL:
        raise ZeroCollision(f"shared zero: a_{j} coincides with z_{k}")
    if sep < UNION_SEPARATION_FLOOR:
        raise SeparationTooSmall(
            f"separation {sep:.3e} below {UNION_SEPARATION_FLOOR:g}; "
            "the merged product's nodes nearly coincide, so its interpolation constant blows up"
        )

    # the check above proved the two zero sets apart, so the merged points are distinct
    merged = ZeroSequence._subset(np.concatenate([a_vals, z_vals]), np.concatenate([b.zeros._sizes, c.zeros._sizes]))
    d = BlaschkeProduct(merged, CirclePoint(b.rotation.arg + c.rotation.arg))
    g = InterpolantRep(d, TargetVector(np.concatenate([alpha.values, beta.values])))
    g1 = InterpolantRep(d, TargetVector(np.concatenate([alpha.values, np.zeros(c.degree, dtype=complex)])))
    g2 = InterpolantRep(d, TargetVector(np.concatenate([np.zeros(b.degree, dtype=complex), beta.values])))
    tilde = np.conj(g.lagrange_coeffs.values * d._node_weights) / merged._sizes
    # interleaved: a_j sorts at 2j, z_k at 2k + 1
    order = np.argsort(np.concatenate([2 * np.arange(b.degree), 2 * np.arange(c.degree) + 1]))
    return UnionConstruction(B=b, C=c, tilde_gamma=tuple(tilde[order].tolist()), G=g, G1=g1, G2=g2)


def nearby_iterate(
    b: BlaschkeProduct,
    z_seq: Union[ZeroSequence, Iterable[PointLike]],
    targets,
    max_iter: int = 30,
    tol: float = 1e-8,
    grid: Optional[CircleGrid] = None,
) -> tuple[InterpolantRep, IterationTrace]:
    """Interpolate targets on a node set near the zeros of B, by correction.

    Solve on the zeros, evaluate at the nearby nodes, re-solve on the
    residual, and accumulate.  With M the interpolation norm constant and
    nu the index-wise nearness, each sweep contracts the residual by at
    least 2 M nu, so nu < 1/(2M) guarantees geometric convergence; up to
    1.5x that threshold the iteration is still attempted with a warning,
    beyond it ContractionViolated is raised.
    """
    if not isinstance(z_seq, ZeroSequence):
        z_seq = ZeroSequence(z_seq)
    alpha = as_targets(targets)
    if len(z_seq) != b.degree or len(alpha) != b.degree:
        raise ValueError("node and target lengths must equal the degree")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    m_const = lebesgue_constant(b, grid)
    nu = PairedSequences(b.zeros, z_seq).nearness
    threshold = 1.0 / (2.0 * m_const)
    marginal = nu >= threshold
    if nu >= 1.5 * threshold:
        raise ContractionViolated(
            f"nearness {nu:.6g} is beyond 1.5/(2M) = {1.5 * threshold:.6g}; "
            "the correction iteration has no contraction to offer"
        )
    if marginal:
        warnings.warn(
            f"nearness {nu:.6g} exceeds the guaranteed radius 1/(2M) = {threshold:.6g}; "
            "attempting the iteration without a convergence guarantee",
            RuntimeWarning,
            stacklevel=2,
        )

    ratio = 2.0 * m_const * nu
    total = np.zeros(b.degree, dtype=complex)
    achieved = np.zeros(b.degree, dtype=complex)
    residual = alpha.values.copy()
    residual_sup = []
    # B at the nodes is the same every step: each step's interpolant is only its column times it
    outer = b.evaluate(z_seq.values)
    for _ in range(max_iter):
        total = total + residual
        achieved = achieved + solve_kb(b, residual)._column(z_seq.values, outer)
        residual = alpha.values - achieved
        residual_sup.append(float(np.max(np.abs(residual))))
        if residual_sup[-1] <= tol:
            break
    else:
        raise MaxIterExceeded(
            f"residual {residual_sup[-1]:.3e} above tol {tol:.3e} "
            f"after {max_iter} steps (contraction ratio bound {ratio:.3f})"
        )

    trace = IterationTrace(
        residual_sup=tuple(residual_sup),
        bound_curve=tuple(alpha.sup_norm * ratio**m for m in range(len(residual_sup))),
        M_used=m_const,
        epsilon_used=1.0 - nu,
        contraction_marginal=marginal,
    )
    return solve_kb(b, TargetVector(total)), trace


def frostman_shift_zeros(b: BlaschkeProduct, a: PointLike) -> ZeroSequence:
    """All solutions in the disk of B(z) = a, the zeros of the shifted product.

    Found together by lockstep Ehrlich-Aberth sweeps on the factored form
    (BlaschkeProduct._preimages), for any degree, in O(N^2) time per sweep
    and O(ROW_BLOCK N) memory.  Each root must verify |B(root) - a| <= 1e-8
    inside the disk.
    """
    target = as_point(a).z
    degree = b.degree
    if degree == 0:
        raise ValueError("cannot shift a degree-zero product")

    points = b._preimages(target)

    # np.hypot of the parts is Python's abs of a complex, so each decision is abs's
    moduli = np.hypot(points.real, points.imag)
    inside = moduli <= 1.0
    residuals = np.full(points.size, math.inf)
    shifted = b.evaluate(points[inside]) - target
    residuals[inside] = np.hypot(shifted.real, shifted.imag)
    bad = (residuals > ROOT_RESIDUAL_TOL) | (moduli >= 1.0)
    if bad.any():
        raise RootVerificationFailed(
            f"{np.count_nonzero(bad)} of {degree} roots failed verification "
            f"(worst residual {residuals.max():.3e}, degree {degree})"
        )

    def _sort_key(w: complex) -> tuple[float, float]:
        arg = cmath.phase(w)
        return (0.0 if abs(arg) < ROOT_ARG_TOL else wrap_angle(arg), abs(w))

    try:
        return ZeroSequence(sorted(points.tolist(), key=_sort_key))
    except PointOutsideDisk as exc:
        raise RootVerificationFailed(f"root grazes the boundary guard: {exc}") from exc
