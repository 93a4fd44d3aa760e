import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blaschke_lab import (
    BOUNDARY_MARGIN,
    BlaschkeProduct,
    CircleGrid,
    DiskPoint,
    DuplicatePoint,
    IndexOutOfRange,
    PointOutsideDisk,
    TargetVector,
    ZeroSequence,
    as_targets,
    cohn_sum,
    dyakonov_sup,
    frostman_sum,
    kernel_bounds_check,
    one_minus_abs_sq,
    pairwise_rho,
    perturb_sample,
    perturbation_reports,
    solve_kb,
)
from blaschke_lab import blaschke, criteria, geometry
from blaschke_lab.sequences import PairedSequences
from tests.conftest import (
    deep_tolerance,
    mirrored_deep_sequence,
    mp_product,
    peak_bytes,
    random_deep_sequence,
    random_separated,
    whole_nearest_pair,
    whole_node_cofactors,
)


MARGIN_EDGE = 1.0 - BOUNDARY_MARGIN


def _ulps(x: float, k: int) -> float:
    return x + k * math.ulp(x)


# Points within a few ulps of |z| = 1 - BOUNDARY_MARGIN, and points with a
# non-finite part.
EDGE_POINTS = st.one_of(
    st.builds(
        lambda t, i, j: complex(_ulps(MARGIN_EDGE * math.cos(t), i), _ulps(MARGIN_EDGE * math.sin(t), j)),
        st.floats(0.0, 2.0 * math.pi),
        st.integers(-8, 8),
        st.integers(-8, 8),
    ),
    st.builds(complex, *[st.one_of(st.floats(-1.0, 1.0), st.sampled_from([math.nan, math.inf, -math.inf]))] * 2),
)


def _refusal(make, z):
    """The PointOutsideDisk text make(z) raises, or None if it accepts z."""
    try:
        make(z)
    except PointOutsideDisk as exc:
        return str(exc)
    return None


class TestZeroSequence:
    # With numpy 2 on x86-64, np.abs of these points falls on the other side of
    # the margin from abs: an array modulus other than np.hypot would err here.
    @example(complex(0.02207172033546026, -0.9997563899077769))
    @example(complex(0.2882984376347221, 0.9575406053308527))
    @example(complex(-0.19895775237236957, 0.9800080677070637))
    @example(complex(0.9881838987713317, 0.15327290109177313))
    @given(EDGE_POINTS)
    def test_disk_rule_is_disk_points(self, z):
        assert _refusal(lambda w: ZeroSequence([w]), z) == _refusal(DiskPoint.from_complex, z)

    @given(st.lists(EDGE_POINTS, min_size=2, max_size=6))
    def test_first_point_outside_is_named(self, points):
        refusals = [_refusal(DiskPoint.from_complex, z) for z in points]
        assume(any(refusals))
        first = next(text for text in refusals if text is not None)
        assert _refusal(ZeroSequence, points) == first
        assert _refusal(ZeroSequence, np.array(points)) == first

    def test_construction_and_access(self):
        seq = ZeroSequence([0.1, DiskPoint(0.2, 0.3), -0.4j])
        assert len(seq) == 3
        assert seq[1] == DiskPoint(0.2, 0.3)
        assert np.allclose(seq.values, [0.1, 0.2 + 0.3j, -0.4j])

    def test_rejects_exact_duplicate(self):
        with pytest.raises(DuplicatePoint, match=r"points 0 and 2 coincide \(rho = 0\.000e\+00\)"):
            ZeroSequence([0.3, 0.1j, 0.3])

    def test_rejects_near_duplicate(self):
        with pytest.raises(DuplicatePoint):
            ZeroSequence([0.3, 0.3 + 1e-14])

    def test_accepts_close_but_distinct(self):
        seq = ZeroSequence([0.3, 0.3 + 1e-12])
        assert len(seq) == 2

    def test_empty_allowed(self):
        seq = ZeroSequence([])
        assert len(seq) == 0
        assert seq.values.shape == (0,)
        assert seq.min_separation == math.inf

    def test_min_separation(self):
        seq = ZeroSequence([0.0, 0.5])
        assert seq.min_separation == pytest.approx(0.5)
        assert ZeroSequence([0.2]).min_separation == math.inf

    def test_slicing_returns_sequence(self):
        seq = ZeroSequence([0.1, 0.2, 0.3])
        head = seq[:2]
        assert isinstance(head, ZeroSequence)
        assert len(head) == 2
        assert head == ZeroSequence([0.1, 0.2])

    @pytest.mark.parametrize("part", [slice(None, 40), slice(7, 30), slice(None, None, 3), slice(5, 6), slice(3, 3)])
    def test_slice_skips_the_check_and_keeps_min_separation_bits(self, monkeypatch, part):
        seq = random_deep_sequence(3, 60)
        checks = []
        monkeypatch.setattr(ZeroSequence, "__init__", lambda self, points: checks.append(points))
        sliced = seq[part]
        assert checks == []
        monkeypatch.undo()
        fresh = ZeroSequence(seq.values[part])
        assert sliced == fresh
        assert sliced.min_separation.hex() == fresh.min_separation.hex()
        assert not sliced.values.flags.writeable

    def test_values_read_only(self):
        seq = ZeroSequence([0.1, 0.2])
        with pytest.raises(ValueError):
            seq.values[0] = 0.9

    @pytest.mark.parametrize("values", [[], [0.1], [0.1, -0.25j, 0.3 - 0.4j, 1e-300 + 0.7j]])
    def test_repr_evaluates_to_an_equal_sequence(self, values):
        seq = ZeroSequence(values)
        assert eval(repr(seq), {"ZeroSequence": ZeroSequence}) == seq


# A few points of the disk; arrays drawn from them repeat points, so equal
# distances (ties) are exact.
POINT_POOLS = st.lists(
    st.builds(lambda r, t: complex(r * math.cos(t), r * math.sin(t)), st.floats(0.0, 0.99), st.floats(0.0, 2.0 * math.pi)),
    min_size=1,
    max_size=4,
)


def _bits(nearest):
    """A _nearest_pair result as bits: the value's hex, the witness and the row minima's bytes."""
    value, j, k, least = nearest
    return value.hex(), j, k, least.tobytes()


def _first_least_pair(dist: np.ndarray, skip_diagonal: bool):
    """The least entry of dist, its first (j, k) in row-major order and every row's least, by double loop."""
    value, witness, minima = math.inf, None, []
    for j in range(dist.shape[0]):
        row_least = math.inf
        for k in range(dist.shape[1]):
            if skip_diagonal and j == k:
                continue
            row_least = min(row_least, dist[j, k])
            if witness is None or dist[j, k] < value:
                value, witness = dist[j, k], (j, k)
        minima.append(row_least)
    return float(value), witness, np.array(minima)


class TestNearestPair:
    @given(st.data(), st.booleans(), st.integers(1, 3))
    @settings(max_examples=200)
    def test_is_the_first_least_pair(self, data, square, block):
        pool = data.draw(POINT_POOLS)

        def drawn(least):
            return np.array(data.draw(st.lists(st.sampled_from(pool), min_size=least, max_size=8)), dtype=complex)

        a = drawn(2 if square else 1)
        z = None if square else drawn(1)
        # rows go 1 to 3 at a time, so the repeated points tie across blocks
        with mock.patch.object(geometry, "ROW_BLOCK", block):
            value, j, k, row_minima = blaschke._nearest_pair(a, one_minus_abs_sq(a), z)
        dist = pairwise_rho(a, a if square else z)
        expected, witness, minima = _first_least_pair(dist, skip_diagonal=square)
        assert (value, (j, k)) == (expected, witness)
        assert row_minima.tobytes() == minima.tobytes()

    @pytest.mark.parametrize("block", [7, blaschke.ROW_BLOCK])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocks_equal_the_whole_matrix(self, monkeypatch, seed, block):
        # 144 points, S then -S: each least pair has a twin 72 rows on, in another block
        a = mirrored_deep_sequence(seed, 72).values
        z = mirrored_deep_sequence(seed + 10, 72).values
        assert a.size >= 2 * blaschke.ROW_BLOCK + 1
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        for other in (None, z):
            value, j, k, least = whole_nearest_pair(a, other)
            dist = pairwise_rho(a, a if other is None else other)
            assert np.count_nonzero(dist == value) >= 2 and (j + 72) // block != j // block
            assert _bits(blaschke._nearest_pair(a, one_minus_abs_sq(a), other)) == _bits((value, j, k, least))

    def test_planted_tie_goes_to_the_first_pair(self):
        p, q = 0.3 + 0.1j, -0.2j
        a, b = np.array([q, p, 0.9, p, q]), np.array([0.5, p, p])
        assert blaschke._nearest_pair(a, one_minus_abs_sq(a))[1:3] == (0, 4)
        assert blaschke._nearest_pair(b, one_minus_abs_sq(b), np.array([0.0, p, p]))[1:3] == (1, 1)


class TestTargetVector:
    def test_basics(self):
        t = TargetVector([1.0, -2j])
        assert len(t) == 2
        assert t.sup_norm == pytest.approx(2.0)
        assert t[1] == -2j

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TargetVector([1.0, complex(math.nan, 0.0)])

    @pytest.mark.parametrize("values", [[], [2.0], [1.0, -2j, 0.1 + 1e300j]])
    def test_repr_evaluates_to_an_equal_vector(self, values):
        targets = TargetVector(values)
        assert eval(repr(targets), {"TargetVector": TargetVector}) == targets

    def test_arithmetic(self):
        t = TargetVector([1.0, 2.0])
        u = TargetVector([0.5j, -1.0])
        assert (t + u) == TargetVector([1.0 + 0.5j, 1.0])
        assert (2.0 * t) == TargetVector([2.0, 4.0])

    @pytest.mark.parametrize(
        "make",
        [list, tuple, lambda v: (x for x in v), np.array, lambda v: TargetVector(v), lambda v: np.array(v, np.complex64)],
        ids=["list", "tuple", "generator", "ndarray", "TargetVector", "complex64"],
    )
    def test_coercion_keeps_the_bits_of_complex(self, make):
        values = [1, -0.0, 0.1, complex(-0.0, -0.0), 2.5 - 1e-300j, np.float32(0.1), np.complex64(1 + 0.1j), True]
        expected = np.array([complex(v) for v in make(values)], dtype=complex)
        assert TargetVector(make(values)).values.tobytes() == expected.tobytes()

    def test_does_not_hold_the_callers_array(self):
        given_values = np.array([0.25, 0.5j])
        targets, zeros = TargetVector(given_values), ZeroSequence(given_values)
        given_values[0] = 0.75
        assert targets[0] == 0.25 and zeros.values[0] == 0.25

    def test_as_targets_passthrough(self):
        t = TargetVector([1.0])
        assert as_targets(t) is t
        assert as_targets([1.0, 2.0]) == TargetVector([1.0, 2.0])


class TestBlaschkeEvaluate:
    def test_degree_one_origin_is_identity(self):
        b = BlaschkeProduct(ZeroSequence([0.0]))
        for z in (0.0, 0.5, -0.3 + 0.1j, 1.0):
            assert b(z) == pytest.approx(z)

    def test_empty_product_is_rotation_constant(self):
        b = BlaschkeProduct(ZeroSequence([]), rotation=1j)
        assert b(0.3) == pytest.approx(1j)
        assert b.degree == 0

    def test_frozen_value(self):
        b = BlaschkeProduct(ZeroSequence([0.0, 0.5]))
        # 0.25 * (0.5 - 0.25) / (1 - 0.125) = 1/14
        assert b(0.25) == pytest.approx(1.0 / 14.0, abs=1e-15)

    def test_value_at_origin_is_product_of_moduli(self):
        seq = random_separated(7, 6, min_rho=0.2)
        b = BlaschkeProduct(seq)
        assert b(0.0) == pytest.approx(np.prod(np.abs(seq.values)), abs=1e-14)

    def test_rotation_scales_values(self):
        seq = ZeroSequence([0.2, -0.3j])
        plain = BlaschkeProduct(seq)
        rotated = BlaschkeProduct(seq, rotation=1j)
        z = 0.4 + 0.1j
        assert rotated(z) == pytest.approx(1j * plain(z))

    def test_vector_evaluation(self):
        b = BlaschkeProduct(ZeroSequence([0.3]))
        pts = np.array([0.0, 0.1j, -0.2])
        vals = b(pts)
        assert vals.shape == (3,)
        for p, v in zip(pts, vals):
            assert v == pytest.approx(b(complex(p)))

    def test_vanishes_at_zeros(self):
        seq = random_separated(3, 8, min_rho=0.15)
        b = BlaschkeProduct(seq)
        assert np.max(np.abs(b(seq.values))) < 1e-14

    def test_rejects_points_outside_closed_disk(self):
        b = BlaschkeProduct(ZeroSequence([0.2]))
        b(1.0 + 1e-10)  # within tolerance
        with pytest.raises(ValueError):
            b(1.1)

    @given(st.integers(0, 10_000), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=40)
    def test_unimodular_on_circle(self, seed, angle):
        seq = random_separated(seed, 5, min_rho=0.15)
        b = BlaschkeProduct(seq)
        assert abs(b(complex(math.cos(angle), math.sin(angle)))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_modulus_below_one_inside(self):
        seq = random_separated(11, 6, min_rho=0.2)
        b = BlaschkeProduct(seq)
        rng = np.random.default_rng(0)
        pts = 0.95 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 64)
        )
        assert np.all(np.abs(b(pts)) < 1.0)


def _row_block_outputs():
    """What every caller of _in_row_blocks returns on one set of inputs, exactly.

    Products are built here, so their node cofactors take the current
    block size too.  Floats print by repr, which round-trips.
    """
    seq = random_deep_sequence(5, 40)
    b = BlaschkeProduct(seq, rotation=np.exp(0.3j))
    # one zero: each points x zeros matrix is one column
    lone = BlaschkeProduct([0.4 - 0.3j], rotation=np.exp(0.3j))
    rng = np.random.default_rng(4)
    circle = np.exp(2j * np.pi * rng.uniform(size=150))
    inner = 0.9 * np.sqrt(rng.uniform(size=60)) * np.exp(2j * np.pi * rng.uniform(size=60))
    points = np.concatenate([circle, inner, seq.values[:10]])
    alpha = np.exp(2j * np.pi * rng.uniform(size=len(seq)))
    # shallow zeros: most best grid values lie on base points off the cell
    # centres, which only the grid pass's second evaluation reaches
    centre = random_separated(0, 20, 0.1, 0.7)
    pairs = [perturb_sample(centre, 0.3, s, min_sep=0.01) for s in range(6)]
    grid = CircleGrid(base_count=256, refinement_rounds=1)
    return {
        "evaluate": b.evaluate(points).tobytes(),
        "derivative": b.derivative(points).tobytes(),
        "one_zero": [lone.evaluate(points).tobytes(), solve_kb(lone, [0.5j])(points).tobytes()],
        "carleson": repr(b.carleson()),
        "lagrange": solve_kb(b, alpha)(points).tobytes(),
        "frostman_sum": repr(frostman_sum(seq, grid)),
        "grid_pass": [
            a.tobytes() for a in criteria._grid_pass(*criteria._perturbation_scans(pairs), grid, criteria.REFINE_SEEDS)
        ],
        "perturbation_reports": repr(perturbation_reports(pairs, 0.3, grid)),
        "nearest_pair": _bits(blaschke._nearest_pair(seq.values, seq._sizes, points[150:])),
        "cohn_sum": repr(cohn_sum(seq)),
        "dyakonov_sup": repr(dyakonov_sup(b, TargetVector(alpha))),
        "kernel_bounds_check": repr(kernel_bounds_check(seq.values, seq.values * (1.0 - 1e-3), 12.0)),
    }


def _linear_memory_inputs(n):
    """Check-deep's family at N = n, a copy moved 1e-4 of the way to the origin, and the product."""
    seq = random_deep_sequence(0, n, 1e-3, 0.5)
    return seq, ZeroSequence(seq.values * (1.0 - 1e-4)), BlaschkeProduct(seq)


# Each pass that built a whole points x N matrix, on the inputs above.
_LINEAR_MEMORY_CALLS = {
    "ZeroSequence": lambda seq, near, b: ZeroSequence(seq.values),
    "min_separation": lambda seq, near, b: seq[1:].min_separation,
    "cohn_sum": lambda seq, near, b: cohn_sum(seq),
    "dyakonov_sup": lambda seq, near, b: dyakonov_sup(b, TargetVector(np.ones(len(seq)))),
    "kernel_bounds_check": lambda seq, near, b: kernel_bounds_check(seq.values, near.values, 12.0),
    "separation": lambda seq, near, b: PairedSequences(seq, near).separation,
}


class TestRowBlocks:
    """Every points x N matrix is built ROW_BLOCK rows at a time; each value is row-local."""

    @pytest.mark.parametrize("block", [1, 7, blaschke.ROW_BLOCK])
    def test_blocks_keep_the_bits_of_one_whole_batch(self, monkeypatch, block):
        # larger than every call's rows: each call is one block
        monkeypatch.setattr(geometry, "ROW_BLOCK", 10**6)
        whole = _row_block_outputs()
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        assert _row_block_outputs() == whole

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 40, 130])
    def test_node_cofactors_equal_the_whole_matrix(self, degree):
        b = BlaschkeProduct(random_deep_sequence(degree, degree), rotation=np.exp(0.7j))
        assert b._node_cofactors.tobytes() == whole_node_cofactors(b).tobytes()

    @pytest.mark.parametrize("call", sorted(_LINEAR_MEMORY_CALLS))
    def test_memory_is_linear_in_n(self, call):
        n = 2000
        inputs = _linear_memory_inputs(n)
        # kernel_bounds_check's temporaries of one block, two complex and one real,
        # and 32 complex arrays of length N
        bound = blaschke.ROW_BLOCK * n * (2 * 16 + 8) + 32 * n * 16
        assert peak_bytes(lambda: _LINEAR_MEMORY_CALLS[call](*inputs)) <= bound


class TestCofactor:
    def test_drops_one_zero(self):
        seq = ZeroSequence([0.1, 0.2, 0.3])
        cof = BlaschkeProduct(seq).cofactor(1)
        assert cof.zeros == ZeroSequence([0.1, 0.3])

    def test_keeps_rotation(self):
        b = BlaschkeProduct(ZeroSequence([0.1, 0.2]), rotation=1j)
        assert b.cofactor(0).rotation == b.rotation

    def test_index_out_of_range(self):
        b = BlaschkeProduct(ZeroSequence([0.1, 0.2]))
        with pytest.raises(IndexOutOfRange):
            b.cofactor(2)
        with pytest.raises(IndexOutOfRange):
            b.cofactor(-1)

    def test_factorization(self):
        seq = random_separated(5, 5, min_rho=0.2)
        b = BlaschkeProduct(seq)
        a = seq.values[2]
        factor = lambda z: (-abs(a) / a) * (z - a) / (1.0 - np.conj(a) * z)
        cof = b.cofactor(2)
        for z in (0.1, -0.4j, 0.7 + 0.1j):
            assert b(z) == pytest.approx(factor(z) * cof(z), abs=1e-14)


class TestDerivative:
    @staticmethod
    def central_difference(f, z, h=1e-6):
        return (f(z + h) - f(z - h)) / (2.0 * h)

    def test_matches_finite_difference(self):
        seq = random_separated(13, 6, min_rho=0.2, rmax=0.8)
        b = BlaschkeProduct(seq)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            if float(np.min(np.abs(z - seq.values))) < 0.05:
                continue
            assert b.derivative(z) == pytest.approx(
                self.central_difference(b, z), rel=1e-6
            )

    def test_matches_difference_quotient_at_zero(self):
        seq = random_separated(17, 5, min_rho=0.25, rmax=0.8)
        b = BlaschkeProduct(seq)
        for a in seq.values:
            fd = self.central_difference(b, complex(a))
            assert b.derivative(complex(a)) == pytest.approx(fd, rel=1e-6)

    def test_deep_zeros_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        seq = random_deep_sequence(47, 40)
        b = BlaschkeProduct(seq)
        inward = seq.values * (1.0 - 1e-9 / np.abs(seq.values))
        points = np.concatenate([seq.values, inward])
        got = b.derivative(points)
        product = mp_product(b)
        with mpmath.workdps(40):
            expected = [complex(mpmath.diff(product, complex(z))) for z in points]
        np.testing.assert_allclose(got, expected, rtol=deep_tolerance(seq), atol=0)

    def test_degree_one_derivative(self):
        b = BlaschkeProduct(ZeroSequence([0.0]))
        assert b.derivative(0.3 + 0.2j) == pytest.approx(1.0)


class TestCarleson:
    def test_frozen_pair(self):
        report = BlaschkeProduct(ZeroSequence([0.0, 0.5])).carleson()
        assert report.delta == pytest.approx(0.5, abs=1e-12)
        assert [q for _, q in report.per_zero] == pytest.approx([0.5, 0.5])

    def test_identity_with_rho_products(self):
        for seed in range(8):
            seq = random_separated(seed, 7, min_rho=0.15)
            report = BlaschkeProduct(seq).carleson()
            mat = pairwise_rho(seq.values, seq.values)
            np.fill_diagonal(mat, 1.0)
            for j, quantity in report.per_zero:
                assert quantity == pytest.approx(
                    float(np.prod(mat[j])), rel=1e-9
                )
        # Zeros down to 1 - |a| = 1e-6; the product is taken as a log-sum.
        seq = random_deep_sequence(41, 200, depth_min=1e-6)
        report = BlaschkeProduct(seq).carleson()
        mat = pairwise_rho(seq.values, seq.values)
        np.fill_diagonal(mat, 1.0)
        expected = np.exp(np.sum(np.log(mat), axis=1))
        assert [q for _, q in report.per_zero] == pytest.approx(
            expected, rel=deep_tolerance(seq)
        )

    def test_rotation_invariant(self):
        seq = ZeroSequence([0.2, -0.5j, 0.1 + 0.6j])
        plain = BlaschkeProduct(seq).carleson()
        rotated = BlaschkeProduct(seq, rotation=np.exp(0.7j)).carleson()
        assert rotated.delta == pytest.approx(plain.delta, rel=1e-12)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(ZeroSequence([])).carleson()

    def test_delta_is_minimum(self):
        seq = random_separated(23, 6, min_rho=0.2)
        report = BlaschkeProduct(seq).carleson()
        assert report.delta == min(q for _, q in report.per_zero)
