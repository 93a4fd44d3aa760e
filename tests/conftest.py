import math
import tracemalloc

import numpy as np
import pytest

from blaschke_lab import (
    BlaschkeProduct,
    CriterionReport,
    DiskPoint,
    KernelBoundsReport,
    ZeroSequence,
    beta,
    one_minus_abs_sq,
    pairwise_rho,
)
from blaschke_lab.geometry import _depth, _kernel

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def peak_bytes(call):
    """The tracemalloc peak of one call; numpy reports its data buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_separated(seed, n, min_rho=0.1, rmax=0.9):
    """Rejection-sample n points with pairwise pseudohyperbolic distance >= min_rho."""
    rng = np.random.default_rng(seed)
    values = []
    attempts = 0
    while len(values) < n:
        attempts += 1
        if attempts > 50_000:
            raise RuntimeError("separated sampling stalled; loosen the parameters")
        w = complex(rng.uniform(-rmax, rmax), rng.uniform(-rmax, rmax))
        if abs(w) > rmax:
            continue
        if values and float(pairwise_rho(np.array(values), np.array([w])).min()) < min_rho:
            continue
        values.append(w)
    return ZeroSequence([DiskPoint(w.real, w.imag) for w in values])


def random_deep_sequence(seed, n, depth_min=1e-6, depth_max=0.5):
    """n points with 1 - |a| log-uniform in [depth_min, depth_max], argument uniform."""
    rng = np.random.default_rng(seed)
    depth = np.exp(rng.uniform(np.log(depth_min), np.log(depth_max), n))
    return ZeroSequence((1.0 - depth) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))


def mirrored_deep_sequence(seed, half):
    """Check-deep's family, 1 - |a| log-uniform in [1e-3, 0.5], as half points S followed by -S.

    Negating both points of a pair negates z - a, leaves 1 - |a|^2 and
    conj(a) (z - a) as they are, bit for bit, and so the kernel
    (1 - |a|^2) - conj(a) (z - a) and rho(-a, -z) = rho(a, z): every least pair
    has a twin half the length further on.  With half a multiple of 8 and
    2 half > 128, numpy's pairwise sum splits each row at half, so the Cohn
    rows of a and -a, whose halves are swapped, tie exactly too.
    """
    values = random_deep_sequence(seed, half, 1e-3, 0.5).values
    return ZeroSequence(np.concatenate([values, -values]))


def whole_kernels(a, gaps):
    """The kernels 1 - conj(a) z of one whole matrix, from the gaps z - a; a broadcasts against them."""
    a = np.asarray(a, dtype=complex)
    return _kernel(a, one_minus_abs_sq(a), gaps, np.empty(gaps.shape, dtype=complex))


def whole_nearest_pair(a, z=None):
    """The least rho(a_j, z_k) of one whole matrix, its first (j, k) in row-major order and each row's least.

    The whole-matrix form of blaschke._nearest_pair (z None: z = a, j != k),
    from pairwise_rho.
    """
    dist = pairwise_rho(a, a if z is None else z)
    if z is None:
        np.fill_diagonal(dist, np.inf)
    j, k = divmod(int(dist.argmin()), dist.shape[1])
    return float(dist[j, k]), j, k, dist.min(axis=1)


def whole_node_cofactors(b):
    """B_j(a_j) for every j as the product of one whole N x N matrix of factors, each own factor (an exact 0) read as 1."""
    zeros = b.zeros.values
    prefactors = np.where(zeros == 0, 1.0, -np.abs(zeros) / np.where(zeros == 0, 1.0, zeros))
    gaps = zeros[:, None] - zeros[None, :]
    factors = prefactors[None, :] * (gaps / whole_kernels(zeros[None, :], gaps))
    np.fill_diagonal(factors, 1.0)
    return b.rotation.value * np.prod(factors, axis=1)


def _first_maximum(name, rows):
    k = int(np.argmax(rows))
    return CriterionReport(name=name, value=float(rows[k]), argmax_or_argmin=k, per_index=tuple(rows.tolist()))


def whole_cohn_sum(a_seq):
    """cohn_sum from one whole N x N kernel matrix."""
    values = a_seq.values
    weights = _depth(values, one_minus_abs_sq(values))
    kernels = np.abs(whole_kernels(values, values[:, None] - values[None, :]))
    return _first_maximum("cohn", np.sum(weights[None, :] / kernels, axis=1))


def whole_dyakonov_sup(b, alpha):
    """dyakonov_sup from one whole N x N matrix."""
    zeros = b.zeros.values
    coefficients = np.asarray(alpha, dtype=complex) * b._node_weights
    inner = coefficients[None, :] / whole_kernels(zeros[:, None], zeros[None, :] - zeros[:, None])
    return _first_maximum("dyakonov", np.abs(np.sum(inner, axis=1)))


def whole_kernel_bounds_check(a, z, r):
    """kernel_bounds_check's report from whole points x N matrices, with the one kernel.

    Returns the report and the largest hyperbolic distance, that of the
    first pair of least 1 - rho^2; the witness is the first row-major entry
    of the worst slack's matrix.
    """
    a, z = np.asarray(a, dtype=complex), np.asarray(z, dtype=complex)
    s = math.tanh(r)
    size_a, size_z = one_minus_abs_sq(a), one_minus_abs_sq(z)
    kernel = np.abs(whole_kernels(a[:, None], z[None, :] - a[:, None]))
    inv_kernel = 1.0 / kernel
    mid_z = ((1.0 - s * np.abs(z)) / size_z)[None, :]
    mid_a = ((1.0 - s * np.abs(a)) / size_a)[:, None]
    slacks = {
        "floor_slack": np.broadcast_to(mid_z - (1.0 - s), kernel.shape),
        "z_kernel_slack": inv_kernel - mid_z,
        "a_kernel_slack": inv_kernel - mid_a,
        "normalized_kernel_slack": size_z[None, :] * inv_kernel - (1.0 - s),
    }
    worst = {name: float(np.min(grid)) for name, grid in slacks.items()}
    witness = divmod(int(np.argmin(slacks[min(worst, key=worst.get)])), z.size)
    j, k = divmod(int(np.argmin(np.outer(size_a, size_z) * inv_kernel**2)), z.size)
    return KernelBoundsReport(s=s, witness=witness, **worst), beta(a[j], z[k])


def deep_tolerance(seq):
    """Relative error allowance 16 N eps / min(1 - |a|^2) for values built on deep zeros.

    It lets each 1 - conj(a) z carry an absolute error of about eps, a
    relative error of eps / (1 - |a|^2), once per factor.
    """
    return 16 * len(seq) * np.finfo(float).eps / float(one_minus_abs_sq(seq.values).min())


def mp_product(b, without=None):
    """B as an mpmath function, factor by factor at the working precision; without=j leaves factor j out (B_j).

    The zeros and the rotation are taken exactly as stored; call the result
    inside mpmath.workdps.
    """
    import mpmath

    rotation = mpmath.mpc(b.rotation.value)
    zeros = [mpmath.mpc(complex(a)) for k, a in enumerate(b.zeros.values) if k != without]

    def product(w):
        w = mpmath.mpc(w)
        num = mpmath.fprod((w - a) if a == 0 else -abs(a) / a * (w - a) for a in zeros)
        den = mpmath.fprod(1 - mpmath.conj(a) * w for a in zeros)
        return rotation * num / den

    return product


def lagrange_rows(b, points):
    """Rows of Lagrange basis values L_j(z) = (B_j(z) / B_j(a_j)) (1 - |a_j|^2) / (1 - conj(a_j) z).

    The package's former evaluation path, kept as an oracle for the Cauchy
    form: the cofactors come from prefix and suffix products of the plain
    factors (z - a) / (1 - conj(a) z), whose unimodular normalization
    cancels in the ratio, and the kernel denominator is accumulated as
    (1 - |a|^2) + conj(a) (a - z).  A point equal to a node gets the exact
    unit row.
    """
    zeros = b.zeros.values
    points = np.asarray(points, dtype=complex)

    def cofactors(z):
        factors = (z[:, None] - zeros) / (1.0 - np.conj(zeros) * z[:, None])
        ones = np.ones((z.size, 1), dtype=complex)
        prefix = np.cumprod(np.concatenate([ones, factors[:, :-1]], axis=1), axis=1)
        suffix = np.cumprod(np.concatenate([ones, factors[:, :0:-1]], axis=1), axis=1)[:, ::-1]
        return prefix * suffix

    sizes = one_minus_abs_sq(zeros)
    kernels = sizes / (sizes + np.conj(zeros) * (zeros - points[:, None]))
    rows = cofactors(points) / np.diag(cofactors(zeros)) * kernels
    hits = points[:, None] == zeros
    rows[hits.any(axis=1)] = 0.0
    rows[hits] = 1.0
    return rows


def mp_interpolant(b, alpha):
    """sum_j alpha_j L_j as an mpmath function, in Lagrange form at the working precision.

    B_j(w) is taken as B(w) over factor j, so w must not be a zero; the
    zeros and targets are taken exactly as stored.  Build and call the
    result inside mpmath.workdps.
    """
    import mpmath

    zeros = [mpmath.mpc(complex(a)) for a in b.zeros.values]
    alpha = [mpmath.mpc(complex(x)) for x in alpha]

    def factors(w):
        return [(w - a) / (1 - mpmath.conj(a) * w) for a in zeros]

    nodes = [mpmath.fprod(f for k, f in enumerate(factors(a)) if k != j) for j, a in enumerate(zeros)]

    def interpolant(w):
        w = mpmath.mpc(complex(w))
        fs = factors(w)
        product = mpmath.fprod(fs)
        return mpmath.fsum(
            x * product / (f * node) * (1 - abs(a) ** 2) / (1 - mpmath.conj(a) * w)
            for x, f, node, a in zip(alpha, fs, nodes, zeros)
        )

    return interpolant


def kernel_solve_oracle(zeros, targets):
    """Independent Cauchy-kernel solve, written out directly."""
    zeros = np.asarray(zeros, dtype=complex)
    k = (1.0 - np.abs(zeros) ** 2)[None, :] / (
        1.0 - np.conj(zeros)[None, :] * zeros[:, None]
    )
    c = np.linalg.solve(k, np.asarray(targets, dtype=complex))

    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.sum(
            c[None, :]
            * (1.0 - np.abs(zeros) ** 2)[None, :]
            / (1.0 - np.conj(zeros)[None, :] * z[:, None]),
            axis=1,
        )

    return f


def kw_interpolant(b, w):
    """Targets alpha_j = 1 / (1 - conj(w) a_j) and their exact K_B interpolant.

    That interpolant is the reproducing kernel of K_B at w,
    k_w^B(z) = (1 - conj(B(w)) B(z)) / (1 - conj(w) z): it lies in K_B and
    equals alpha_j at each zero a_j.  conj(B(w)) B(z) does not depend on how
    the factors are normalized, so it is formed here from the plain factors
    (z - a_j) / (1 - conj(a_j) z).
    """
    zeros = b.zeros.values
    w = complex(w)

    def factors(z):
        return (z[:, None] - zeros[None, :]) / (1.0 - np.conj(zeros)[None, :] * z[:, None])

    b_w = np.prod(factors(np.array([w])))

    def exact(z):
        z = np.asarray(z, dtype=complex)
        return (1.0 - np.conj(b_w) * np.prod(factors(z), axis=1)) / (1.0 - np.conj(w) * z)

    return 1.0 / (1.0 - np.conj(w) * zeros), exact


def random_delta_sequence(seed, n, delta_min=0.3):
    """Radial radii with random arguments, resampled until the Carleson bound holds."""
    rng = np.random.default_rng(seed)
    # Deep rungs must clear the disk-boundary margin: q^n >= 2e-14.
    q_floor = max(0.12, (2e-14) ** (1.0 / n))
    for _ in range(300):
        q = rng.uniform(q_floor, 0.22)
        args = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radii = 1.0 - q ** np.arange(1, n + 1)
        seq = ZeroSequence(
            [DiskPoint(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, args)]
        )
        if BlaschkeProduct(seq).carleson().delta >= delta_min:
            return seq
    raise RuntimeError("no sequence reached the requested Carleson bound")


def split_separated(seed, n_a, n_z, min_rho=0.45, rmax=0.9):
    """Two sequences whose union is min_rho-separated, so the cross separation is too."""
    merged = random_separated(seed, n_a + n_z, min_rho=min_rho, rmax=rmax)
    return merged[:n_a], merged[n_a:]


@pytest.fixture
def separated_factory():
    return random_separated


@pytest.fixture
def delta_factory():
    return random_delta_sequence


@pytest.fixture
def split_factory():
    return split_separated
