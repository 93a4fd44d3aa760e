import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blaschke_lab import (
    BOUNDARY_MARGIN,
    CirclePoint,
    DiskPoint,
    EuclideanDisk,
    PairedSequences,
    PointOutsideDisk,
    beta,
    kernel_bounds_check,
    mobius,
    one_minus_abs_sq,
    pairwise_rho,
    pseudo_disk_to_euclidean,
    rho,
)
from blaschke_lab import geometry
from blaschke_lab.sequences import perturb_sample
from tests.conftest import mirrored_deep_sequence, random_separated, whole_kernel_bounds_check

EPS = np.finfo(float).eps


def disk_points(max_mod=0.999):
    return st.builds(
        lambda r, t: DiskPoint(r * math.cos(t), r * math.sin(t)),
        st.floats(0.0, max_mod),
        st.floats(0.0, 2.0 * math.pi),
    )


class TestDiskPoint:
    def test_roundtrip(self):
        p = DiskPoint(0.3, -0.4)
        assert complex(p) == 0.3 - 0.4j
        assert DiskPoint.from_complex(0.3 - 0.4j) == p

    def test_rejects_boundary(self):
        with pytest.raises(PointOutsideDisk):
            DiskPoint(1.0, 0.0)
        with pytest.raises(PointOutsideDisk):
            DiskPoint(1.0 - 1e-16, 0.0)
        with pytest.raises(PointOutsideDisk):
            DiskPoint(0.8, 0.7)

    def test_rejects_non_finite(self):
        with pytest.raises(PointOutsideDisk):
            DiskPoint(math.nan, 0.0)
        with pytest.raises(PointOutsideDisk):
            DiskPoint(0.0, math.inf)

    def test_margin_interior_accepted(self):
        p = DiskPoint(1.0 - 1e-14, 0.0)
        assert abs(p.z) < 1.0 - BOUNDARY_MARGIN


class TestCirclePoint:
    def test_normalizes_argument(self):
        assert CirclePoint(2.0 * math.pi + 0.5).arg == pytest.approx(0.5)
        assert CirclePoint(-0.5).arg == pytest.approx(2.0 * math.pi - 0.5)

    def test_tiny_negative_argument_wraps_to_zero(self):
        # -1e-17 % (2 pi) rounds to exactly 2 pi, outside [0, 2 pi)
        assert CirclePoint(-1e-17).arg == 0.0
        assert CirclePoint(2.0 * math.pi).arg == 0.0

    @pytest.mark.parametrize("arg", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, arg):
        with pytest.raises(ValueError, match="non-finite argument"):
            CirclePoint(arg)

    def test_from_complex(self):
        w = CirclePoint.from_complex(1j)
        assert w.arg == pytest.approx(math.pi / 2)
        assert complex(w) == pytest.approx(1j)

    def test_from_complex_rejects_off_circle(self):
        with pytest.raises(ValueError):
            CirclePoint.from_complex(0.5)
        # a hair off the circle is tolerated
        CirclePoint.from_complex((1.0 + 1e-10) * 1j)


class TestRho:
    def test_distance_from_origin_is_modulus(self):
        assert rho(0, 0.3 + 0.4j) == pytest.approx(0.5)

    def test_known_value(self):
        # |(-0.5) - 0.5| / |1 - 0.5 * (-0.5)| = 1 / 1.25
        assert rho(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)

    def test_identity_of_indiscernibles(self):
        assert rho(0.3 + 0.2j, 0.3 + 0.2j) == 0.0

    @given(disk_points(), disk_points())
    def test_symmetry(self, a, z):
        assert rho(a, z) == pytest.approx(rho(z, a), abs=1e-12)

    @given(disk_points(0.99), disk_points(0.99), disk_points(0.99))
    @settings(max_examples=60)
    def test_mobius_invariance(self, w, a, z):
        moved = rho(mobius(w, a), mobius(w, z))
        assert moved == pytest.approx(rho(a, z), abs=1e-9)

    @given(disk_points(0.99), disk_points(0.99), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=60)
    def test_rotation_invariance(self, a, z, t):
        u = complex(math.cos(t), math.sin(t))
        rotated = rho(
            DiskPoint.from_complex(u * a.z), DiskPoint.from_complex(u * z.z)
        )
        assert rotated == pytest.approx(rho(a, z), abs=1e-12)

    @given(disk_points(0.99), disk_points(0.99))
    def test_one_minus_rho_sq_identity(self, a, z):
        lhs = 1.0 - rho(a, z) ** 2
        rhs = (
            float(one_minus_abs_sq([a.z])[0])
            * float(one_minus_abs_sq([z.z])[0])
            / abs(1.0 - a.z.conjugate() * z.z) ** 2
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_pairwise_matches_scalar(self):
        a = [0.1 + 0.2j, -0.5j]
        z = [0.3, 0.7j, -0.2 - 0.2j]
        mat = pairwise_rho(a, z)
        assert mat.shape == (2, 3)
        for j, aw in enumerate(a):
            for k, zw in enumerate(z):
                assert mat[j, k] == pytest.approx(rho(aw, zw), abs=1e-15)

    def test_elementwise_keeps_the_bits_of_the_pairwise_diagonal(self):
        paired = PairedSequences(random_separated(1, 12), random_separated(2, 12))
        diagonal = np.diag(pairwise_rho(paired.A.values, paired.Z.values))
        assert paired.index_distances.tobytes() == diagonal.tobytes()


class TestBeta:
    def test_atanh_of_rho(self):
        assert beta(0, 0.5) == pytest.approx(math.atanh(0.5))

    @given(disk_points(0.99), disk_points(0.99))
    def test_dominates_rho(self, a, z):
        assert beta(a, z) >= rho(a, z) - 1e-15


class TestMobius:
    def test_swaps_center_and_origin(self):
        a = DiskPoint(0.4, -0.3)
        assert complex(mobius(a, 0)) == pytest.approx(a.z)
        assert complex(mobius(a, a)) == pytest.approx(0.0)

    @given(disk_points(0.99), disk_points(0.99))
    @settings(max_examples=60)
    def test_involution(self, a, z):
        assert complex(mobius(a, mobius(a, z))) == pytest.approx(z.z, abs=1e-10)


class TestCancellationSafety:
    def test_one_minus_abs_sq_near_boundary(self):
        # naive 1 - |z|^2 loses half the digits here; the error-free sum keeps them
        gap = 1e-12
        z = (1.0 - gap) * np.exp(0.7j)
        value = float(one_minus_abs_sq([z])[0])
        expected = gap * (2.0 - gap)
        assert value == pytest.approx(expected, rel=1e-12)


def inside(w: complex) -> bool:
    """The package's disk rule, abs(w) (libm hypot); math.hypot is correctly rounded and can differ in the last bit."""
    return abs(w) < 1.0 - BOUNDARY_MARGIN


def deep_points():
    """Points with 1 - |a| log-uniform down to 1e-15, inside the boundary margin."""
    return st.builds(
        lambda depth, t: (1.0 - 10.0**depth) * complex(math.cos(t), math.sin(t)),
        st.floats(-15.0, 0.0),
        st.floats(0.0, 2.0 * math.pi),
    ).filter(inside)


@st.composite
def deep_pairs(draw):
    """Two deep points, the second often a tiny turn and step away from the first."""
    a = draw(deep_points())
    if draw(st.booleans()):
        z = draw(deep_points())
    else:
        turn = 10.0 ** draw(st.floats(-16.0, -1.0))
        step = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -1.0))
        z = a * complex(math.cos(turn), math.sin(turn)) * (1.0 - step)
    assume(z != a and inside(z))
    return a, z


def _relative_error(got, exact) -> float:
    return float(abs(mpmath.mpf(got) - exact) / abs(exact)) / EPS


class TestAgainstMpmath:
    """Sizes, depths, rho, 1 - rho^2 and beta of the stored doubles, against 50-digit mpmath, to 8 eps."""

    @given(deep_points())
    @settings(max_examples=300, deadline=None)
    def test_size_and_depth(self, a):
        size = one_minus_abs_sq([a])
        with mpmath.workdps(50):
            exact = 1 - abs(mpmath.mpc(a)) ** 2
            assert _relative_error(size[0], exact) <= 8
            assert _relative_error(geometry._depth(np.array([a]), size)[0], 1 - abs(mpmath.mpc(a))) <= 8

    @given(deep_pairs())
    @example((0j, -0.8390688253558024 - 0.5440252809530379j))
    @example((0.9 + 0j, 0.9 + 5e-324j))
    @settings(max_examples=300, deadline=None)
    def test_rho_and_beta(self, pair):
        a, z = pair
        # the first example's z is inside by math.hypot, outside by the package's rule
        assume(inside(z))
        points = np.array([a, z])
        sizes = one_minus_abs_sq(points)
        kernel = geometry._kernel(points[:1], sizes[:1], points[1:] - points[:1], np.empty(1, dtype=complex))[0]
        with mpmath.workdps(50):
            ma, mz = mpmath.mpc(a), mpmath.mpc(z)
            exact_kernel = abs(1 - mpmath.conj(ma) * mz)
            exact_rho = abs(mz - ma) / exact_kernel
            exact_co = (1 - abs(ma) ** 2) * (1 - abs(mz) ** 2) / exact_kernel**2
            # a subnormal rho, as for 0.9 and 0.9 + 5e-324j, has too few digits for a relative bound
            assume(exact_rho >= sys.float_info.min)
            assert _relative_error(rho(a, z), exact_rho) <= 8
            assert _relative_error(pairwise_rho([a], [z])[0, 0], exact_rho) <= 8
            assert _relative_error(sizes[0] * sizes[1] / abs(kernel) ** 2, exact_co) <= 8
            assert _relative_error(beta(a, z), mpmath.atanh(exact_rho)) <= 8


class TestPseudoDiskConversion:
    def test_known_disk(self):
        disk = pseudo_disk_to_euclidean(DiskPoint(0.5, 0.0), 0.5)
        assert disk.center == pytest.approx(0.4)
        assert disk.radius == pytest.approx(0.4)

    def test_centered_at_origin(self):
        disk = pseudo_disk_to_euclidean(DiskPoint(0.0, 0.0), 0.3)
        assert disk.center == 0.0
        assert disk.radius == pytest.approx(0.3)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            pseudo_disk_to_euclidean(DiskPoint(0.1, 0.0), 0.0)
        with pytest.raises(ValueError):
            pseudo_disk_to_euclidean(DiskPoint(0.1, 0.0), 1.0)

    @given(disk_points(0.95), st.floats(0.05, 0.95))
    @settings(max_examples=80)
    def test_boundary_has_constant_rho(self, c, r):
        disk = pseudo_disk_to_euclidean(c, r)
        for w in disk.boundary_points(16):
            assert rho(c, w) == pytest.approx(r, abs=1e-10)

    @given(disk_points(0.95), st.floats(0.05, 0.95))
    @settings(max_examples=80)
    def test_stays_inside_unit_disk(self, c, r):
        disk = pseudo_disk_to_euclidean(c, r)
        assert abs(disk.center) + disk.radius <= 1.0 + 1e-12

    def test_rotation_equivariance(self):
        c = DiskPoint(0.3, 0.4)
        disk = pseudo_disk_to_euclidean(c, 0.6)
        m = abs(c.z)
        axis = pseudo_disk_to_euclidean(DiskPoint(m, 0.0), 0.6)
        assert disk.radius == pytest.approx(axis.radius, abs=1e-14)
        assert abs(disk.center) == pytest.approx(axis.center.real, abs=1e-14)
        assert disk.center / abs(disk.center) == pytest.approx(c.z / m)


def _scalar_disk(c, r):
    """The image disk computed one point at a time in Python floats."""
    m = abs(c)
    phase = c / m if m > 0.0 else 1.0
    denom = (1.0 - r * m) * (1.0 + r * m)
    p = (1.0 - r) * (1.0 + r) * m / denom
    return phase * p, r * float(one_minus_abs_sq(c)) / denom


class TestEuclideanDisks:
    @pytest.mark.parametrize("r", [1e-9, 0.3, 0.9])
    def test_array_form_keeps_the_bits_of_one_point_at_a_time(self, r):
        rng = np.random.default_rng(5)
        depth = 10.0 ** rng.uniform(-14, 0, 2000)
        values = (1.0 - depth) * np.exp(2j * np.pi * rng.uniform(size=2000))
        values = np.concatenate([values, [0.0, 0.5, -0.5j, -0.0 - 0.25j]])
        centers, radii = geometry._euclidean_disks(values, r)
        for c, center, radius in zip(values, centers, radii):
            expected_center, expected_radius = _scalar_disk(complex(c), r)
            assert complex(center) == expected_center
            assert float(radius).hex() == expected_radius.hex()


class TestEuclideanDisk:
    def test_contains(self):
        disk = EuclideanDisk(center=0.2, radius=0.3)
        assert disk.contains(0.4)
        assert not disk.contains(0.6)

    def test_rejects_disk_leaving_unit_disk(self):
        with pytest.raises(ValueError):
            EuclideanDisk(center=0.8, radius=0.3)
        with pytest.raises(ValueError):
            EuclideanDisk(center=0.0, radius=-0.1)


class TestKernelBounds:
    def test_origin_pair_all_slack(self):
        report = kernel_bounds_check([0.0], [0.0], 1.0)
        assert report.min_slack() >= 0.0
        assert report.s == pytest.approx(math.tanh(1.0))

    def test_spec_pair(self):
        r = beta(0.5, 0.6)
        report = kernel_bounds_check([0.5], [0.6], r)
        assert report.min_slack() >= -1e-12
        assert report.witness == (0, 0)

    def test_rejects_distant_pair(self):
        with pytest.raises(ValueError):
            kernel_bounds_check([0.0], [0.9], beta(0.0, 0.5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kernel_bounds_check([], [0.1], 1.0)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_rejects_non_positive_radius(self, r):
        with pytest.raises(ValueError, match="must be positive"):
            kernel_bounds_check([0.0], [0.0], r)

    @pytest.mark.parametrize("depth", [1e-9, 1e-12])
    def test_pair_whose_rho_rounds_to_one_is_rejected_without_a_warning(self, depth):
        # rho = 1 - depth^2 / 2 rounds to 1, but 1 - rho^2 is exact: the distance stays finite
        a, z = 1.0 - depth, -(1.0 - depth)
        assert pairwise_rho([a], [z])[0, 0] >= 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="hyperbolic distance") as raised:
                kernel_bounds_check([a], [z], 1.0)
        distance = float(str(raised.value).split("distance ")[1].split()[0])
        with mpmath.workdps(50):
            exact = mpmath.atanh(abs(mpmath.mpf(z) - a) / abs(1 - mpmath.mpf(a) * z))
        assert abs(distance / float(exact) - 1.0) <= 8 * EPS

    def test_pair_near_the_circle_is_at_its_hyperbolic_distance(self):
        # 1 - |a| = 5.5e-14 and 1 - |z| = 3.9e-11: the naive 1 - conj(a) z gives rho = 1 + 1e-12,
        # where the exact kernel gives 1 - 8.4e-15 (50-digit mpmath: 1 - 8.6e-15, distance 16.54)
        a = 0.8594185567410162 - 0.511272671212807j
        z = 0.8594300055400923 - 0.5112534259042746j
        report = kernel_bounds_check([a], [z], 30.0)
        assert report.min_slack() >= -1e-12
        with pytest.raises(ValueError, match="hyperbolic distance 16.5"):
            kernel_bounds_check([a], [z], 16.0)

    @pytest.mark.parametrize("block", [7, geometry.ROW_BLOCK])
    @pytest.mark.parametrize("seed", [0, 2])
    def test_blocks_equal_the_whole_matrix(self, monkeypatch, seed, block):
        # a and z are S then -S: every slack at (j, k) recurs at (j + 72, k + 72), in another block
        a = mirrored_deep_sequence(seed, 72).values
        z = a * (1.0 - 1e-4)
        assert a.size >= 2 * geometry.ROW_BLOCK + 1
        whole, farthest = whole_kernel_bounds_check(a, z, 12.0)
        assert farthest < 12.0
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        assert repr(kernel_bounds_check(a, z, 12.0)) == repr(whole)

    def test_monte_carlo_paired_samples(self):
        for seed in range(40):
            a_seq = random_separated(seed, 6, min_rho=0.3, rmax=0.8)
            paired = perturb_sample(a_seq, 0.2, seed, min_sep=0.05)
            rho_max = float(
                np.max(pairwise_rho(paired.A.values, paired.Z.values))
            )
            r = math.atanh(min(rho_max, 1.0 - 1e-12)) + 1e-9
            report = kernel_bounds_check(paired.A, paired.Z, r)
            assert report.min_slack() >= -1e-12
