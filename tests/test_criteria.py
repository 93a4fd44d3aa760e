import collections
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschke_lab import (
    BlaschkeProduct,
    CircleGrid,
    CirclePoint,
    NearnessExceeded,
    PairedSequences,
    PerturbationReport,
    TargetVector,
    ZeroCollision,
    ZeroSequence,
    cohn_sum,
    cross_modulus,
    dyakonov_sup,
    frostman_example,
    frostman_sum,
    nearness,
    pairwise_rho,
    perturb_sample,
    perturbation_report,
    perturbation_reports,
    radial_sequence,
    rho,
    scan_circle,
    separation,
    vasyunin_sum,
)
from blaschke_lab import blaschke, criteria, geometry
from blaschke_lab.criteria import GOLDEN, GOLDEN_STEPS_PER_ROUND, REFINE_SEEDS
from blaschke_lab.geometry import TWO_PI, _depth, one_minus_abs_sq
from tests.conftest import (
    deep_tolerance,
    mirrored_deep_sequence,
    peak_bytes,
    random_deep_sequence,
    random_separated,
    split_separated,
    whole_cohn_sum,
    whole_dyakonov_sup,
    whole_kernels,
)

GRID = CircleGrid(base_count=256, refinement_rounds=1)
EPS = np.finfo(float).eps


class TestCircleGrid:
    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            CircleGrid(base_count=128)

    def test_rejects_negative_rounds(self):
        with pytest.raises(ValueError):
            CircleGrid(refinement_rounds=-1)

    def test_angles_include_extras(self):
        grid = CircleGrid(base_count=256, extra_args=(0.1234,))
        assert 0.1234 in grid.angles()

    def test_extras_normalized(self):
        grid = CircleGrid(base_count=256, extra_args=(-0.5,))
        assert grid.extra_args[0] == pytest.approx(2.0 * math.pi - 0.5)

    def test_tiny_negative_extra_wraps_to_zero(self):
        # -1e-17 % (2 pi) rounds to exactly 2 pi, the same point as 0
        grid = CircleGrid(base_count=256, extra_args=(-1e-17,))
        assert grid.extra_args == (0.0,)
        assert grid.angles().size == 256

    def test_angles_are_sorted_without_repeats(self):
        # extras on the base grid, repeated, and between base points
        extras = (0.0, TWO_PI * 3 / 256, TWO_PI * 3 / 256, 0.1234567, 0.1234567, 6.2)
        grid = CircleGrid(base_count=256, extra_args=extras)
        expected = np.unique(np.concatenate([TWO_PI * np.arange(256) / 256, extras]))
        assert grid.angles().tobytes() == expected.tobytes()

    def test_with_injected(self):
        seq = ZeroSequence([0.3 * np.exp(0.777j)])
        grid = CircleGrid(base_count=256).with_injected(seq)
        assert any(abs(a - 0.777) < 1e-12 for a in grid.extra_args)


def _scalar_golden(f, lo, hi, steps, sign):
    """Reference golden-section search, one scalar f call per argument."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = sign * f(x1)
    f2 = sign * f(x2)
    best_val, best_arg = (f1, x1) if f1 >= f2 else (f2, x2)
    for _ in range(steps):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = sign * f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = sign * f(x1)
        if f1 > best_val:
            best_val, best_arg = f1, x1
        if f2 > best_val:
            best_val, best_arg = f2, x2
    return best_val, best_arg


def _scalar_scan(f, grid, mode):
    """Reference circle scan: the grid, then each seed's search in turn."""
    sign = 1.0 if mode == "max" else -1.0
    angles = grid.angles()
    signed = sign * np.asarray(f(angles), dtype=float)
    # value descending, equal values in grid order
    order = np.argsort(-signed, kind="stable")[:REFINE_SEEDS]
    best_val, best_arg = float(signed[order[0]]), float(angles[order[0]])
    steps = GOLDEN_STEPS_PER_ROUND * grid.refinement_rounds
    if steps > 0:
        half_cell = math.pi / grid.base_count
        scalar_f = lambda x: float(f(np.array([x % TWO_PI]))[0])
        for idx in order:
            center = float(angles[idx])
            val, arg = _scalar_golden(scalar_f, center - half_cell, center + half_cell, steps, sign)
            if val > best_val:
                best_val, best_arg = val, arg
    return sign * best_val, CirclePoint(best_arg).arg


def _frostman_total(seq):
    weights = _depth(seq.values, one_minus_abs_sq(seq.values))

    def total(angles):
        zeta = np.exp(1j * angles)
        return np.sum(weights[None, :] / np.abs(zeta[:, None] - seq.values[None, :]), axis=1)

    return total


def _kernel_ratio(a, z):
    def ratio(angles):
        zeta = np.exp(1j * angles)
        num = np.abs(1.0 - np.conj(z)[None, :] * zeta[:, None])
        den = np.abs(1.0 - np.conj(a)[None, :] * zeta[:, None])
        return np.min(num / den, axis=1)

    return ratio


def _tie_steps(then_left):
    """A step function on which the refined maximum depends on the tie rules.

    Near the grid nodes c = 40 and 100 cells from 0, the first two golden
    points x1 < x2 of c's search both take the value 2, above every grid
    value: f1 >= f2 keeps x1 as the witness, and the two searches tie, so
    the in-order merge keeps the first.  With then_left, the point each
    search visits next when f1 < f2 is false takes the value 3.
    """
    h = math.pi / 256
    steps = []
    for node in (40, 100):
        c = node * 2.0 * h
        lo, hi = c - h, c + h
        x1 = hi - GOLDEN * (hi - lo)
        x2 = lo + GOLDEN * (hi - lo)
        x3 = x2 - GOLDEN * (x2 - lo)
        steps += [(c, 1.0), (x1, 2.0), (x2, 2.0)] + ([(x3, 3.0)] if then_left else [])

    def f(angles):
        out = np.zeros_like(angles)
        for at, level in steps:
            out[np.abs(angles - at) < 1e-6] = level
        return out

    return f


_A = frostman_example(12).values
_SCAN_CASES = {
    "cosine": (lambda t: np.cos(t - 1.0), "max"),
    "cosine_min": (lambda t: np.cos(t - 1.0), "min"),
    "frostman15": (_frostman_total(frostman_example(15)), "max"),
    "kernel_ratio_min": (_kernel_ratio(_A, _A * np.exp(0.01j) * 0.999), "min"),
    "tie_first": (_tie_steps(False), "max"),
    "tie_first_min": (lambda t: -_tie_steps(False)(t), "min"),
    "tie_then_left": (_tie_steps(True), "max"),
    "tie_then_left_min": (lambda t: -_tie_steps(True)(t), "min"),
}


class TestScanCircle:
    def test_finds_cosine_maximum(self):
        f = lambda t: np.cos(t - 1.0)
        value, witness, raw = scan_circle(f, CircleGrid(base_count=256, refinement_rounds=3))
        assert value == pytest.approx(1.0, abs=1e-8)
        assert witness.arg == pytest.approx(1.0, abs=1e-3)
        assert raw.shape == (256,)

    def test_minimum_mode(self):
        f = lambda t: np.cos(t)
        value, witness, _ = scan_circle(f, GRID, mode="min")
        assert value == pytest.approx(-1.0, abs=1e-8)
        assert witness.arg == pytest.approx(math.pi, abs=1e-2)

    @pytest.mark.parametrize("rounds", [0, 1, 3])
    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_matches_scalar_reference_bit_for_bit(self, case, rounds):
        f, mode = _SCAN_CASES[case]
        grid = CircleGrid(base_count=256, refinement_rounds=rounds, extra_args=(0.1234567,))
        value, witness, _ = scan_circle(f, grid, mode=mode)
        ref_value, ref_arg = _scalar_scan(f, grid, mode)
        assert value == ref_value
        assert witness.arg == ref_arg

    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_one_call_per_lockstep_step(self, rounds):
        sizes = []

        def counted(angles):
            assert np.all((angles >= 0.0) & (angles < TWO_PI))
            sizes.append(angles.size)
            return np.cos(angles - 1.0)

        grid = CircleGrid(base_count=256, refinement_rounds=rounds)
        scan_circle(counted, grid)
        steps = GOLDEN_STEPS_PER_ROUND * rounds
        refine_calls = 2 + steps if steps else 0
        assert len(sizes) == 1 + refine_calls
        assert sizes[0] == grid.angles().size
        assert sizes[1:] == [REFINE_SEEDS] * refine_calls
        assert sum(sizes) == 256 + REFINE_SEEDS * refine_calls

    def test_refinement_never_decreases_maximum(self):
        total = _frostman_total(frostman_example(15))
        coarse, _, _ = scan_circle(total, CircleGrid(base_count=256, refinement_rounds=0))
        fine, _, _ = scan_circle(total, CircleGrid(base_count=256, refinement_rounds=3))
        denser, _, _ = scan_circle(total, CircleGrid(base_count=1024, refinement_rounds=3))
        assert fine >= coarse - 1e-15
        assert denser >= coarse - 1e-15


class TestFrostmanSum:
    def test_radial_sum_is_exact_at_one(self):
        for n in (5, 12, 30):
            report = frostman_sum(radial_sequence(0.5, n), GRID)
            assert report.value == pytest.approx(float(n), abs=1e-9)
            assert isinstance(report.argmax_or_argmin, CirclePoint)
            assert report.argmax_or_argmin.arg == pytest.approx(0.0, abs=1e-12)

    def test_injection_finds_off_grid_ray(self):
        # the ray argument is irrational relative to the grid; only the
        # injected candidates can reach the exact peak value n
        report = frostman_sum(radial_sequence(0.5, 10, arg=0.1234567), GRID)
        assert report.value == pytest.approx(10.0, abs=1e-9)
        assert report.argmax_or_argmin.arg == pytest.approx(0.1234567, abs=1e-9)

    def test_empty_sequence_sums_to_zero(self):
        # no zeros and no grid extras: each scan has no off-base point
        report = frostman_sum(ZeroSequence([]), GRID)
        assert report.value == 0.0
        assert report.per_index == ()

    def test_per_index_matches_value_at_witness(self):
        report = frostman_sum(frostman_example(10), GRID)
        assert sum(report.per_index) == pytest.approx(report.value, rel=1e-12)

    def test_monotone_in_appended_points(self):
        small = frostman_sum(frostman_example(10), GRID).value
        large = frostman_sum(frostman_example(14), GRID).value
        assert large >= small - 1e-12

    def test_frostman_example_trend_is_bounded(self):
        s20 = frostman_sum(frostman_example(20), GRID).value
        s40 = frostman_sum(frostman_example(40), GRID).value
        assert abs(s40 - s20) <= 0.05 * s20

    @pytest.mark.parametrize("block", [1, 7, blaschke.ROW_BLOCK])
    def test_point_blocks_keep_the_bits_of_one_whole_grid_call(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        seq = random_deep_sequence(3, 40)
        report = frostman_sum(seq, GRID)
        value, witness, _ = scan_circle(_frostman_total(seq), GRID.with_injected(seq), mode="max")
        assert report.value.hex() == value.hex()
        assert report.argmax_or_argmin.arg.hex() == witness.arg.hex()

    def test_each_base_point_is_evaluated_once_at_most(self, monkeypatch):
        seq = random_deep_sequence(0, 500)
        grid = CircleGrid()
        base = set(np.exp(1j * grid.angles()).tolist())
        seen = collections.Counter()
        entries = _counted_entries(monkeypatch)
        kernel = criteria._frostman_rows

        def counted(zeta, values, *args):
            seen.update(point for point in zeta.ravel().tolist() if point in base)
            return kernel(zeta, values, *args)

        monkeypatch.setattr(criteria, "_frostman_rows", counted)
        frostman_sum(seq, grid)
        assert max(seen.values()) == 1
        assert entries[0] < len(seq) * grid.with_injected(seq).angles().size

    def test_memory_is_bounded_by_the_block(self):
        n = 500
        seq = random_deep_sequence(0, n)
        points = CircleGrid().with_injected(seq).angles().size
        # two complex temporaries of one block, and 16 float arrays of grid length
        bound = 2 * blaschke.ROW_BLOCK * n * 16 + 16 * points * 8
        assert peak_bytes(lambda: frostman_sum(seq)) <= bound


class TestCohnSum:
    def test_frozen_pair(self):
        report = cohn_sum(ZeroSequence([0.0, 0.5]))
        # row at 0.5: (1-0)/|1-0| + (1-0.5)/|1-0.25| = 1 + 2/3
        assert report.value == pytest.approx(5.0 / 3.0, abs=1e-14)
        assert report.argmax_or_argmin == 1
        assert report.per_index[0] == pytest.approx(1.5, abs=1e-14)

    def test_single_point(self):
        report = cohn_sum(ZeroSequence([0.3]))
        assert report.value == pytest.approx(0.7 / (1.0 - 0.09))

    @pytest.mark.parametrize("block", [7, blaschke.ROW_BLOCK])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocks_equal_the_whole_matrix(self, monkeypatch, seed, block):
        # S then -S: row n and row n + 72 tie exactly, in different blocks
        seq = mirrored_deep_sequence(seed, 72)
        assert len(seq) >= 2 * blaschke.ROW_BLOCK + 1
        whole = whole_cohn_sum(seq)
        assert whole.per_index.count(whole.value) == 2
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        assert repr(cohn_sum(seq)) == repr(whole)


class TestDyakonovSup:
    @pytest.mark.parametrize("block", [7, blaschke.ROW_BLOCK])
    def test_blocks_equal_the_whole_matrix(self, monkeypatch, block):
        # the witness is the first maximum of rows with the whole matrix's bits
        b = BlaschkeProduct(mirrored_deep_sequence(2, 72))
        alpha = np.exp(1j * np.arange(b.degree))
        whole = whole_dyakonov_sup(b, alpha)
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        assert repr(dyakonov_sup(b, TargetVector(alpha))) == repr(whole)

    def test_frozen_pair(self):
        b = BlaschkeProduct(ZeroSequence([0.0, 0.5]))
        report = dyakonov_sup(b, TargetVector([1.0, 1.0]))
        # B'(0) = 1/2, B'(1/2) = -2/3: row k=0 gives |2 - 3/2| = 1/2
        assert report.value == pytest.approx(0.5, abs=1e-12)
        assert report.argmax_or_argmin == 0
        assert report.per_index[1] == pytest.approx(0.0, abs=1e-12)

    def test_characteristic_vector_closed_form(self):
        seq = random_separated(31, 5, min_rho=0.25)
        b = BlaschkeProduct(seq)
        j = 2
        alpha = TargetVector([1.0 if i == j else 0.0 for i in range(5)])
        report = dyakonov_sup(b, alpha)
        deriv = abs(b.derivative(seq.values[j]))
        expected = max(
            1.0 / (deriv * abs(1.0 - seq.values[j] * np.conj(ak)))
            for ak in seq.values
        )
        assert report.value == pytest.approx(expected, rel=1e-12)

        # Deep zeros, with |B'(a_j)| and the kernels taken from mpmath at 40 digits.
        mpmath = pytest.importorskip("mpmath")
        seq = random_deep_sequence(43, 40, depth_min=1e-6)
        b = BlaschkeProduct(seq)
        j = int(np.argmax(np.abs(seq.values)))
        alpha = TargetVector([1.0 if i == j else 0.0 for i in range(len(seq))])
        report = dyakonov_sup(b, alpha)
        with mpmath.workdps(40):
            pts = [mpmath.mpc(complex(a)) for a in seq.values]
            aj = pts[j]
            deriv = mpmath.fprod(
                abs(aj - ak) / abs(1 - mpmath.conj(ak) * aj) for k, ak in enumerate(pts) if k != j
            ) / (1 - abs(aj) ** 2)
            expected = max(1 / (deriv * abs(1 - aj * mpmath.conj(ak))) for ak in pts)
        assert report.value == pytest.approx(float(expected), rel=deep_tolerance(seq))

    @staticmethod
    def unit_row_error(seq):
        """Worst relative error of the alpha = 1 rows against |B(0)| / |a_k|.

        The residues of 1 / (B(z) (1 - conj(a_k) z)) at the zeros and at
        infinity sum to zero, which gives that closed form for every row.
        """
        b = BlaschkeProduct(seq)
        rows = np.array(dyakonov_sup(b, TargetVector(np.ones(len(seq)))).per_index)
        moduli = np.abs(seq.values)
        exact = np.prod(moduli) / moduli
        return float(np.max(np.abs(rows - exact) / exact))

    def test_unit_targets_closed_form(self):
        assert self.unit_row_error(random_separated(3, 6, min_rho=0.3)) <= 1e-10

    @pytest.mark.xfail(strict=True, reason="known defect: on deep sets the rows cancel far below "
                       "the rounding of their terms, so dyakonov_sup returns noise")
    def test_unit_targets_closed_form_deep(self):
        assert self.unit_row_error(random_deep_sequence(1, 200, 1e-3, 0.5)) <= 1e-10

    def test_length_mismatch_rejected(self):
        b = BlaschkeProduct(ZeroSequence([0.1, 0.2]))
        with pytest.raises(ValueError):
            dyakonov_sup(b, TargetVector([1.0]))


class TestVasyuninSum:
    def test_frozen_pair(self):
        assert vasyunin_sum(ZeroSequence([0.0, 0.5])) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-15
        )

    def test_matches_direct_formula(self):
        seq = frostman_example(12)
        gaps = 1.0 - np.abs(seq.values)
        assert vasyunin_sum(seq) == pytest.approx(
            float(np.sum(gaps * np.log(1.0 / gaps))), rel=1e-12
        )


class TestDeepExampleAgainstMpmath:
    """frostman_example(49), with 1 - |a_n| = 2^-n, against 50-digit mpmath on the stored doubles.

    Each depth, kernel and term is exact to a few eps relative, so a sum of
    N positive terms is within 8 eps plus N eps of the addition.
    """

    @staticmethod
    def worst_error(got, exact):
        with mpmath.workdps(50):
            return max(float(abs(mpmath.mpf(g) / e - 1)) for g, e in zip(got, exact)) / EPS

    def test_cohn_rows(self):
        seq = frostman_example(49)
        with mpmath.workdps(50):
            points = [mpmath.mpc(complex(a)) for a in seq.values]
            rows = [mpmath.fsum((1 - abs(ak)) / abs(1 - mpmath.conj(ak) * an) for ak in points) for an in points]
        assert self.worst_error(cohn_sum(seq).per_index, rows) <= 8 + len(seq)

    def test_frostman_terms(self):
        seq = frostman_example(49)
        report = frostman_sum(seq, GRID)
        with mpmath.workdps(50):
            zeta = mpmath.mpc(report.argmax_or_argmin.value)
            terms = [(1 - abs(mpmath.mpc(complex(a)))) / abs(zeta - complex(a)) for a in seq.values]
        assert self.worst_error(report.per_index, terms) <= 8

    def test_vasyunin_sum(self):
        seq = frostman_example(49)
        with mpmath.workdps(50):
            depths = [1 - abs(mpmath.mpc(complex(a))) for a in seq.values]
            exact = mpmath.fsum(-d * mpmath.log(d) for d in depths)
        assert self.worst_error([vasyunin_sum(seq)], [exact]) <= 8 + len(seq)


class TestCrossModulus:
    def test_single_factor(self):
        b = BlaschkeProduct(ZeroSequence([0.0]))
        report = cross_modulus(b, ZeroSequence([0.5]))
        assert report.value == pytest.approx(0.5)
        assert report.argmax_or_argmin == 0

    def test_pointwise_factorization(self):
        a, z = split_separated(41, 6, 6, min_rho=0.4)
        b = BlaschkeProduct(a)
        report = cross_modulus(b, z)
        mat = pairwise_rho(a.values, z.values)
        for j, observed in enumerate(report.per_index):
            assert observed == pytest.approx(float(np.prod(mat[:, j])), abs=1e-12)

    def test_collision_rejected(self):
        b = BlaschkeProduct(ZeroSequence([0.3]))
        with pytest.raises(ZeroCollision):
            cross_modulus(b, ZeroSequence([0.3 + 1e-14]))

    def test_shrinks_as_nodes_approach_zeros(self):
        a = random_separated(43, 5, min_rho=0.3)
        b = BlaschkeProduct(a)
        values = []
        for radius in (0.4, 0.2, 0.1):
            paired = perturb_sample(a, radius, 3, min_sep=0.01)
            values.append(cross_modulus(b, paired.Z).value)
        assert values[0] > values[-1]


class TestSeparationNearness:
    def test_identical_pairing(self):
        a = random_separated(5, 4, min_rho=0.3)
        paired = PairedSequences(A=a, Z=ZeroSequence(a.values.copy()))
        assert nearness(paired).value == 0.0

    def test_known_pair(self):
        paired = PairedSequences(A=ZeroSequence([0.0]), Z=ZeroSequence([0.5]))
        assert separation(paired).value == pytest.approx(0.5)
        assert separation(paired).argmax_or_argmin == (0, 0)

    def test_sampler_invariant_rechecked(self):
        a = random_separated(7, 5, min_rho=0.3)
        paired = perturb_sample(a, 0.3, 5, min_sep=0.02)
        assert nearness(paired).value <= 0.3
        assert nearness(paired).argmax_or_argmin in range(5)


class TestPerturbationReport:
    def test_identity_perturbation(self):
        a = random_separated(11, 5, min_rho=0.3)
        paired = PairedSequences(A=a, Z=ZeroSequence(a.values.copy()))
        report = perturbation_report(paired, 0.5, GRID)
        assert report.violations == 0
        for value in (
            report.empirical_C1,
            report.empirical_C2,
            report.empirical_D1,
            report.empirical_D2,
            report.empirical_C3,
            report.empirical_C4,
        ):
            assert value == pytest.approx(1.0, abs=1e-12)
        assert report.frostman_A == pytest.approx(report.frostman_Z, rel=1e-12)

    def test_nearness_exceeded(self):
        paired = PairedSequences(A=ZeroSequence([0.0]), Z=ZeroSequence([0.5]))
        with pytest.raises(NearnessExceeded):
            perturbation_report(paired, 0.2, GRID)

    def test_envelopes_within_hard_bounds(self):
        for seed in range(12):
            r = (0.3, 0.5, 0.7)[seed % 3]
            a = frostman_example(15)
            paired = perturb_sample(a, r, seed, min_sep=0.01)
            report = perturbation_report(paired, r, GRID)
            c_r = (1.0 + r) / (1.0 - r)
            assert report.C_r == pytest.approx(c_r)
            assert report.violations == 0
            assert report.empirical_D1 >= 1.0 / c_r - 1e-12
            assert report.empirical_D2 <= c_r + 1e-12
            assert report.empirical_C3 >= 1.0 / c_r - 1e-12
            assert report.empirical_C4 >= 1.0 / c_r - 1e-12

    def test_envelopes_match_direct_evaluation(self):
        a = random_separated(19, 5, min_rho=0.3)
        paired = perturb_sample(a, 0.4, 2, min_sep=0.02)
        report = perturbation_report(paired, 0.4, GRID)

        av, zv = paired.A.values, paired.Z.values
        size_a = (1.0 - np.abs(av)) * (1.0 + np.abs(av))
        size_z = (1.0 - np.abs(zv)) * (1.0 + np.abs(zv))
        ratios = size_z / size_a
        assert report.empirical_D1 == pytest.approx(float(ratios.min()), rel=1e-12)
        assert report.empirical_D2 == pytest.approx(float(ratios.max()), rel=1e-12)

        ka = np.abs(1.0 - np.conj(av)[:, None] * av[None, :]) ** 2
        kz = np.abs(1.0 - np.conj(zv)[:, None] * zv[None, :]) ** 2
        pair = (np.outer(size_z, size_z) / kz) / (np.outer(size_a, size_a) / ka)
        assert report.empirical_C1 == pytest.approx(float(pair.min()), rel=1e-12)
        assert report.empirical_C2 == pytest.approx(float(pair.max()), rel=1e-12)

    def test_boundary_envelopes_positive(self):
        a = frostman_example(12)
        paired = perturb_sample(a, 0.5, 4, min_sep=0.01)
        report = perturbation_report(paired, 0.5, GRID)
        assert report.empirical_C3 > 0.0
        assert report.empirical_C4 > 0.0

    @pytest.mark.parametrize(
        "centre, seed",
        [
            (frostman_example(20), 65),
            (frostman_example(20), 98),
            (frostman_example(20), 45),
            (frostman_example(20), 1363),
            (random_separated(19, 5, min_rho=0.3), 2),
        ],
        # seeds 45 and 1363 draw the narrow C3 and C4 dips of test_closed_form_at_most_the_ratio_scans
        ids=["frostman20-65", "frostman20-98", "frostman20-45", "frostman20-1363", "shallow5-2"],
    )
    def test_boundary_infima_against_mpmath(self, centre, seed):
        mpmath = pytest.importorskip("mpmath")
        paired = perturb_sample(centre, 0.3, seed, min_sep=0.01)
        report = perturbation_report(paired, 0.3, GRID)
        c3, c4 = _mpmath_boundary_infima(mpmath, paired)
        # the sizes and the gaps are exact to an ulp, so the closed form is too, however deep the points
        assert abs(report.empirical_C3 / c3 - 1.0) <= 8 * EPS
        assert abs(report.empirical_C4 / c4 - 1.0) <= 8 * EPS

    def test_frostman_fields_use_shared_grid(self):
        a = frostman_example(12)
        paired = perturb_sample(a, 0.3, 6, min_sep=0.01)
        report = perturbation_report(paired, 0.3, GRID)
        shared = GRID.with_injected(paired.A, paired.Z)
        assert report.frostman_A == pytest.approx(
            frostman_sum(paired.A, shared).value, rel=1e-12
        )
        assert report.frostman_Z == pytest.approx(
            frostman_sum(paired.Z, shared).value, rel=1e-12
        )


def _size_rounding(paired):
    """The relative rounding allowed in C3 and C4: 16 eps / min over all points w of 1 - |w|.

    Each size 1 - |w|^2 carries a relative error of about eps / (1 - |w|),
    since |w| is rounded before the cancelling subtraction; the rest of the
    closed form adds a few eps.
    """
    points = np.concatenate([paired.A.values, paired.Z.values])
    return 16.0 * np.finfo(float).eps / float(np.min(1.0 - np.abs(points)))


def _mpmath_boundary_infima(mpmath, paired):
    """C3 and C4 from each pair's ratio |1 - conj(z) zeta| / |1 - conj(a) zeta| minimised at 40 digits.

    The ratio has one local minimum on the circle (its level sets are
    Apollonius circles), so the best of a dense sample brackets it: 64
    uniform arguments plus 48 log-spaced offsets from 1e-9 to pi on either
    side of arg a and arg z.  Golden-section search then narrows the
    bracket to 1e-25 of its width.
    """
    c3 = c4 = mpmath.inf
    with mpmath.workdps(40):
        for a, z in zip(paired.A.values, paired.Z.values):
            a, z = mpmath.mpc(complex(a)), mpmath.mpc(complex(z))

            def ratio(t):
                zeta = mpmath.expj(t)
                return abs(1 - mpmath.conj(z) * zeta) / abs(1 - mpmath.conj(a) * zeta)

            offsets = [mpmath.mpf(10) ** (-9 + 9.5 * k / 47) for k in range(48)]
            centres = [mpmath.arg(a), mpmath.arg(z)]
            args = [2 * mpmath.pi * k / 64 for k in range(64)]
            args += [(c + sign * d) % (2 * mpmath.pi) for c in centres for d in offsets for sign in (1, -1)]
            args.sort()
            values = [ratio(t) for t in args]
            k = min(range(len(args)), key=values.__getitem__)
            lo = args[k - 1] - (2 * mpmath.pi if k == 0 else 0)
            hi = args[(k + 1) % len(args)] + (2 * mpmath.pi if k == len(args) - 1 else 0)
            x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
            f1, f2 = ratio(x1), ratio(x2)
            for _ in range(120):
                if f1 < f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - GOLDEN * (hi - lo)
                    f1 = ratio(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + GOLDEN * (hi - lo)
                    f2 = ratio(x2)
            best = min(values[k], f1, f2)
            size_a, size_z = 1 - abs(a) ** 2, 1 - abs(z) ** 2
            c3, c4 = min(c3, best), min(c4, best * size_a / size_z)
    return float(c3), float(c4)


def _ratio_scans(paired, grid):
    """C3 and C4 as grid-plus-golden scans of the boundary kernel ratios find them."""
    a, z = paired.A.values, paired.Z.values
    size_a, size_z = one_minus_abs_sq(a), one_minus_abs_sq(z)
    grid = grid.with_injected(paired.A, paired.Z)

    def weighted_ratio(angles):
        zeta = np.exp(1j * angles)
        num = size_a[None, :] * np.abs(1.0 - np.conj(z)[None, :] * zeta[:, None])
        den = size_z[None, :] * np.abs(1.0 - np.conj(a)[None, :] * zeta[:, None])
        return np.min(num / den, axis=1)

    return scan_circle(_kernel_ratio(a, z), grid, "min")[0], scan_circle(weighted_ratio, grid, "min")[0]


def _reference_scans(paired, grid):
    """The two Frostman scans of a report as before batching: (f, grid) of each one-function maximum."""
    return [
        (_frostman_total(paired.A), grid.with_injected(paired.A, paired.Z)),
        (_frostman_total(paired.Z), grid.with_injected(paired.A, paired.Z)),
    ]


def _reference_report(paired, r, grid):
    """A whole report as before batching: C3 and C4 in closed form, and two one-function scans."""
    a, z = paired.A.values, paired.Z.values
    size_a, size_z = one_minus_abs_sq(a), one_minus_abs_sq(z)
    c_r = (1.0 + r) / (1.0 - r)
    violations = int(np.sum(size_z > c_r * size_a + 1e-12)) + int(np.sum(size_a > c_r * size_z + 1e-12))
    ratios = size_z / size_a
    kernel_a = np.abs(whole_kernels(a[:, None], a[None, :] - a[:, None])) ** 2
    kernel_z = np.abs(whole_kernels(z[:, None], z[None, :] - z[:, None])) ** 2
    pair_ratios = (np.outer(size_z, size_z) / kernel_z) / (np.outer(size_a, size_a) / kernel_a)
    # inf over the circle of |1 - conj(z) zeta| / |1 - conj(a) zeta| is (1 - |z|^2) / K
    k = np.abs(whole_kernels(a, z - a)) + np.abs(z - a)
    c3, c4 = float(np.min(size_z / k)), float(np.min(size_a / k))
    fa, fz = (scan_circle(f, grid, "max")[0] for f, grid in _reference_scans(paired, grid))
    return PerturbationReport(
        C_r=c_r,
        empirical_C1=float(pair_ratios.min()),
        empirical_C2=float(pair_ratios.max()),
        empirical_D1=float(ratios.min()),
        empirical_D2=float(ratios.max()),
        empirical_C3=c3,
        empirical_C4=c4,
        frostman_A=fa,
        frostman_Z=fz,
        violations=violations,
        r=r,
        nearness=paired.nearness,
    )


def _bits(report):
    return {k: v.hex() if isinstance(v, float) else v for k, v in vars(report).items()}


# trial s of a batch perturbs centre sequence s modulo the number of centres
_BATCH_CENTERS = {
    "frostman20": (frostman_example(20),),
    "radial12": (radial_sequence(0.5, 12),),
    "mixed20": (frostman_example(20), radial_sequence(0.5, 20)),
}


def _trials(name, count, r=0.3):
    centres = _BATCH_CENTERS[name]
    return [perturb_sample(centres[seed % len(centres)], r, seed, min_sep=0.01) for seed in range(count)]


def _on_grid_pairs():
    """Two trials whose Z points have arguments already on their grid.

    z_0 is real and positive, so its argument is the base angle 0.0
    exactly; z_1 lies on the base angle pi/2, z_2 = (15/16) a_2 exactly on
    the ray of a_2.  None of them is a fresh point of its trial's grid, and
    all lie where the scans peak.
    """
    a = ZeroSequence([0.99 * np.exp(0.003j), 0.98j, 0.75 + 0.625j])
    z = ZeroSequence([0.99, 0.97j, 0.703125 + 0.5859375j])
    other = ZeroSequence([0.985 * np.exp(0.01j), 0.975 * np.exp(1.58j), 0.74 + 0.6j])
    return [PairedSequences(A=a, Z=z), PairedSequences(A=a, Z=other)]


def _wrapped_pairs():
    """A Z point just below the positive axis: its argument reduces to 2*pi, which wraps to the base angle 0.0."""
    a = ZeroSequence([0.99 * np.exp(-0.002j), 0.9j])
    z = ZeroSequence([0.99 - 1e-17j, 0.91j])
    assert np.angle(z.values[0]) % TWO_PI == TWO_PI
    return [PairedSequences(A=a, Z=z)]


def _full_grid_pass(pairs, grid):
    """The grid pass without pruning: both Frostman sums at every point of each trial's whole grid.

    Each sum is one plain numpy row expression over the whole grid.  Seeds
    are taken by value, descending, equal values in grid order.
    """
    seeds, best = np.empty((2, len(pairs), REFINE_SEEDS)), np.empty((2, len(pairs)))
    for t, paired in enumerate(pairs):
        angles = grid.with_injected(paired.A, paired.Z).angles()
        for side, seq in enumerate((paired.A, paired.Z)):
            values = _frostman_total(seq)(angles)
            order = np.argsort(-values, kind="stable")[:REFINE_SEEDS]
            seeds[side, t], best[side, t] = angles[order], values[order[0]]
    return seeds, best


def _grid_pass(pairs, grid):
    """The seeds and best grid values of a batch's Frostman scans, side x trial, as perturbation_reports finds them."""
    return criteria._grid_pass(*criteria._perturbation_scans(pairs), grid, REFINE_SEEDS)


def _assert_full_grid_seeds(pairs, grid):
    seeds, best = _grid_pass(pairs, grid)
    ref_seeds, ref_best = _full_grid_pass(pairs, grid)
    assert seeds.tobytes() == ref_seeds.tobytes()
    assert best.tobytes() == ref_best.tobytes()


def _shallow_pairs():
    """Trials whose sums vary less across the circle than any cell bound exceeds them.

    Five points of modulus 0.05 in symmetric position give a sum flat to
    about 0.05^5.
    """
    ring = 0.05 * np.exp(2j * np.pi * np.arange(5) / 5)
    return [PairedSequences(A=ZeroSequence(ring), Z=ZeroSequence(ring * np.exp(turn * 1j))) for turn in (0.01, 0.3)]


def _hump_pairs():
    """Trials whose best grid points sit on a broad hump, below a narrow injected peak.

    The zero at 1 - 1e-6 peaks only at its own argument 1; the shallow
    zero near argument 3 makes every other top value a base point, so each
    scan's seeds merge its injected peak with the base pass's best points.
    """
    a = ZeroSequence([(1 - 1e-6) * np.exp(1j), 0.7 * np.exp(3j)])
    return [PairedSequences(A=a, Z=ZeroSequence([(1 - 2e-6) * np.exp(1.0000005j), 0.7 * np.exp(turn * 1j)])) for turn in (2.95, 3.05)]


def _spike_pairs():
    """A spike on a cell centre above a broad bump whose best points are off the centres.

    The zero at 1 - 1e-6 sits on the centre of the first cell of the
    256-point (A) or the 4096-point (Z) base grid; the shallow zero opposite
    gives a bump about 0.4 lower whose cell bounds stay below the spike.
    Those cells are kept only by comparing bounds with the REFINE_SEEDS-th
    best centre value, not with the best one.
    """

    def spike(base_count):
        turn = TWO_PI * 8 / base_count
        return ZeroSequence([(1 - 1e-6) * np.exp(1j * turn), 0.4 * np.exp(1j * (turn + 3.0))])

    return [PairedSequences(A=spike(256), Z=spike(4096))]


def _constant_pairs():
    """A lone zero at 0: its sum is constant up to rounding, so grid values tie exactly."""
    return [PairedSequences(A=ZeroSequence([0.0]), Z=ZeroSequence([1e-3]))]


def _counted_entries(monkeypatch):
    """Count the point x zero entries the Frostman kernel evaluates, over all sums."""
    count = [0]
    kernel = criteria._frostman_rows

    def counted(zeta, values, *args):
        count[0] += np.broadcast(zeta[..., :, None], values[..., None, :]).size
        return kernel(zeta, values, *args)

    monkeypatch.setattr(criteria, "_frostman_rows", counted)
    return count


def _full_grid_entries(pairs, grid):
    return sum(2 * len(p.A) * grid.with_injected(p.A, p.Z).angles().size for p in pairs)


def _unpruned_pass_entries(pairs, grid):
    """The entries of a grid pass that prunes no cell.

    Each distinct zero set is evaluated on the base grid once, and both
    scans of a trial at its off-base points.
    """
    sets = {seq.values.tobytes() for p in pairs for seq in (p.A, p.Z)}
    off_base = sum(grid.with_injected(p.A, p.Z).angles().size - grid.base_count for p in pairs)
    return len(pairs[0].A) * (len(sets) * grid.base_count + 2 * off_base)


_PASS_SETS = {
    "frostman20": lambda: _trials("frostman20", 7),
    "radial12": lambda: _trials("radial12", 7),
    "mixed20": lambda: _trials("mixed20", 7),
    "frostman40": lambda: [perturb_sample(frostman_example(40), 0.3, s, min_sep=0.01) for s in range(3)],
    "radial40": lambda: [perturb_sample(radial_sequence(0.5, 40), 0.3, s, min_sep=0.01) for s in range(3)],
    "on_grid": _on_grid_pairs,
    "wrapped": _wrapped_pairs,
    "shallow": _shallow_pairs,
    "constant": _constant_pairs,
    "hump": _hump_pairs,
    "spike": _spike_pairs,
}


_PASS_GRIDS = pytest.mark.parametrize(
    "grid",
    [
        CircleGrid(base_count=256, refinement_rounds=0),
        CircleGrid(base_count=257, refinement_rounds=0),
        CircleGrid(base_count=1000, refinement_rounds=0),
        CircleGrid(base_count=4096, refinement_rounds=0),
        CircleGrid(base_count=256, refinement_rounds=0, extra_args=(0.1234567, TWO_PI * 3 / 256, -0.5, 3.0001)),
    ],
    ids=["256", "257", "1000", "4096", "256-extras"],
)


class TestGridPass:
    @_PASS_GRIDS
    @pytest.mark.parametrize("name", sorted(_PASS_SETS))
    def test_seeds_and_best_of_the_full_grid(self, name, grid):
        pairs = _PASS_SETS[name]()
        _assert_full_grid_seeds(pairs, grid)

    @_PASS_GRIDS
    @pytest.mark.parametrize("name", sorted(_PASS_SETS))
    def test_frostman_sum_of_the_full_grid(self, name, grid):
        # one round, so that every seed counts, not only the best grid point
        grid = dataclasses.replace(grid, refinement_rounds=1)
        for paired in _PASS_SETS[name]():
            for seq in (paired.A, paired.Z):
                report = frostman_sum(seq, grid)
                value, witness, _ = scan_circle(_frostman_total(seq), grid.with_injected(seq))
                assert report.value.hex() == value.hex()
                assert report.argmax_or_argmin.arg.hex() == witness.arg.hex()

    @given(
        st.integers(0, 10_000),
        st.integers(1, 24),
        st.sampled_from([256, 257, 1000, 4096]),
        # a depth near BOUNDARY_MARGIN (1e-15) can round to |a| >= 1 - BOUNDARY_MARGIN,
        # which DiskPoint rejects by its contract
        st.floats(1e-14, 1e-3),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_deep_sets(self, seed, n, base_count, depth_min):
        pairs = [
            PairedSequences(
                A=random_deep_sequence(seed + t, n, depth_min, 0.5),
                Z=random_deep_sequence(seed + t + 1, n, depth_min, 0.5),
            )
            for t in range(2)
        ]
        grid = CircleGrid(base_count=base_count, refinement_rounds=0)
        _assert_full_grid_seeds(pairs, grid)

    def test_evaluates_a_quarter_of_the_grid_at_most(self, monkeypatch):
        pairs = _trials("frostman20", 32)
        grid = CircleGrid()
        entries = _counted_entries(monkeypatch)
        _grid_pass(pairs, grid)
        assert entries[0] <= 0.25 * _full_grid_entries(pairs, grid)

    # test_seeds_and_best_of_the_full_grid checks the bits of these sets
    @pytest.mark.parametrize("name", ["shallow", "constant"])
    def test_flat_sums_evaluate_every_point_once(self, monkeypatch, name):
        pairs = _PASS_SETS[name]()
        grid = CircleGrid(refinement_rounds=0)
        entries = _counted_entries(monkeypatch)
        _grid_pass(pairs, grid)
        assert entries[0] == _unpruned_pass_entries(pairs, grid)

    def test_centre_base_grid_is_evaluated_once_per_distinct_centre(self, monkeypatch):
        # at most once per base point and distinct centre, however many trials share it
        pairs = _trials("mixed20", 12)
        grid = CircleGrid()
        base = set(np.exp(1j * grid.angles()).tolist())
        centres = {p.A.values.tobytes() for p in pairs}
        seen = collections.Counter()
        kernel = criteria._frostman_rows

        def counted(zeta, values, *args):
            rows = np.broadcast_to(values[..., None, :], np.broadcast_shapes(zeta.shape, values.shape[:-1] + (1,)) + values.shape[-1:])
            points = np.broadcast_to(zeta, rows.shape[:-1]).ravel()
            for point, row in zip(points.tolist(), rows.reshape(-1, rows.shape[-1])):
                key = row.tobytes()
                if key in centres and point in base:
                    seen[key, point] += 1
            return kernel(zeta, values, *args)

        monkeypatch.setattr(criteria, "_frostman_rows", counted)
        _grid_pass(pairs, grid)
        assert len(centres) == 2
        assert {key for key, _ in seen} == centres
        assert max(seen.values()) == 1


class TestPerturbationReports:
    @pytest.mark.parametrize("rounds", [0, 1, 3])
    @pytest.mark.parametrize("count", [1, 7, 32])
    @pytest.mark.parametrize("name", sorted(_BATCH_CENTERS))
    def test_bit_equal_to_one_function_scans(self, name, count, rounds):
        grid = CircleGrid(base_count=256, refinement_rounds=rounds)
        pairs = _trials(name, count)
        reports = perturbation_reports(pairs, 0.3, grid)
        assert len(reports) == count
        for paired, report in zip(pairs, reports):
            assert _bits(report) == _bits(_reference_report(paired, 0.3, grid))

    def test_z_arguments_on_shared_points(self):
        pairs = _on_grid_pairs()
        a, z = pairs[0].A, pairs[0].Z
        assert np.angle(z.values[0]) == 0.0
        assert np.angle(z.values[1]) == GRID.angles()[GRID.base_count // 4]
        assert np.angle(z.values[2]) == np.angle(a.values[2])
        for paired, report in zip(pairs, perturbation_reports(pairs, 0.6, GRID)):
            assert _bits(report) == _bits(_reference_report(paired, 0.6, GRID))
        # a duplicated point would show only in the seeds, so compare them too
        seeds, best = _grid_pass(pairs, GRID)
        for t, paired in enumerate(pairs):
            for column, (f, grid) in enumerate(_reference_scans(paired, GRID)):
                angles = grid.angles()
                values = f(angles)
                order = np.argsort(-values, kind="stable")[:REFINE_SEEDS]
                assert seeds[column, t].tobytes() == angles[order].tobytes()
                assert best[column, t].hex() == values[order[0]].hex()

    # blocks below and above ROW_BLOCK, checked against one-function scans
    @pytest.mark.parametrize("block", [1, 7, 512])
    def test_point_blocks_keep_the_bits(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        pairs = _trials("mixed20", 6)
        for paired, report in zip(pairs, perturbation_reports(pairs, 0.3, GRID)):
            assert _bits(report) == _bits(_reference_report(paired, 0.3, GRID))

    def test_memory_is_bounded_by_the_block(self):
        # 200 trials catch a batch that is not cut into chunks
        for count in (32, 200):
            pairs = _trials("frostman20", count)
            grid = CircleGrid(refinement_rounds=1)
            n, points = 20, grid.with_injected(pairs[0].A).angles().size
            # A golden block, ROW_BLOCK scans of REFINE_SEEDS searches, holds 48
            # bytes per point and zero (gathered values 16, weights 8, gaps 16
            # and distances 8); a grid-pass block of as many points holds 24.
            # On these trials the peak comes in the grid pass's seed merge,
            # when no golden block is alive: the bound counts 32 bytes per
            # point and zero, and 32 float arrays of grid length (points,
            # values and sort temporaries).
            bound = n * blaschke.ROW_BLOCK * REFINE_SEEDS * (16 + 2 * 8) + 32 * points * 8
            assert peak_bytes(lambda: perturbation_reports(pairs, 0.3, grid)) <= bound

    @pytest.mark.parametrize("r", [0.3, 0.7])
    def test_frostman_z_within_the_comparison_of_frostman_a(self, r):
        # Each term obeys (1 - |z|) / |zeta - z| <= K (1 - |a|) / |zeta - a| with
        # K = max_n (1 - |z_n|) / (1 - |a_n|) / C3, so F(Z) <= K F(A) for every
        # trial; a scan that underestimates F(A) breaks it.  The least slack on
        # these trials is 1.9 at r = 0.3 and 4.0 at r = 0.7.
        pairs = _trials("frostman20", 200, r)
        for paired, report in zip(pairs, perturbation_reports(pairs, r)):
            depths = [_depth(seq.values, seq._sizes) for seq in (paired.A, paired.Z)]
            k = np.max(depths[1] / depths[0]) / report.empirical_C3
            assert report.frostman_Z <= k * report.frostman_A

    def test_only_the_frostman_sums_are_refined(self, monkeypatch):
        searches = []
        golden = criteria._golden
        monkeypatch.setattr(
            criteria, "_golden", lambda evaluate, seeds, *a: searches.append(seeds.size) or golden(evaluate, seeds, *a)
        )
        pairs = _trials("mixed20", 6)
        perturbation_reports(pairs, 0.3, GRID)
        # one lockstep run: each distinct (A, seed) once, and every trial's Z seeds
        seeds, _ = _grid_pass(pairs, GRID)
        shared = {(p.A.values.tobytes(), seed) for p, row in zip(pairs, seeds[0]) for seed in row}
        assert len(shared) < len(pairs) * REFINE_SEEDS
        assert searches == [len(shared) + len(pairs) * REFINE_SEEDS]

    def test_closed_form_at_most_the_ratio_scans(self):
        for name in sorted(_BATCH_CENTERS):
            pairs = _trials(name, 32)
            for paired, report in zip(pairs, perturbation_reports(pairs, 0.3, GRID)):
                c3, c4 = _ratio_scans(paired, GRID)
                slack = 1.0 + _size_rounding(paired)
                assert report.empirical_C3 <= c3 * slack
                assert report.empirical_C4 <= c4 * slack
        # here the scans miss a dip about 1e-6 wide, on the default grid too
        for seed, column in ((45, 0), (1363, 1)):
            paired = perturb_sample(frostman_example(20), 0.3, seed, min_sep=0.01)
            report = perturbation_report(paired, 0.3, GRID)
            closed = (report.empirical_C3, report.empirical_C4)[column]
            assert _ratio_scans(paired, CircleGrid())[column] > 1.05 * closed

    def test_report_independent_of_its_batch(self):
        pairs = _trials("frostman20", 9)
        alone = [_bits(perturbation_report(p, 0.3, GRID)) for p in pairs]
        batch = [_bits(r) for r in perturbation_reports(pairs, 0.3, GRID)]
        backwards = [_bits(r) for r in perturbation_reports(pairs[::-1], 0.3, GRID)][::-1]
        mixed = [_bits(r) for r in perturbation_reports(pairs[4:] + pairs[:4], 0.3, GRID)]
        assert batch == alone
        assert backwards == alone
        assert mixed == alone[4:] + alone[:4]

    def test_mixed_centres_independent_of_their_batch(self):
        pairs = _trials("mixed20", 9)
        alone = [_bits(perturbation_report(p, 0.3, GRID)) for p in pairs]
        assert [_bits(r) for r in perturbation_reports(pairs, 0.3, GRID)] == alone
        assert [_bits(r) for r in perturbation_reports(pairs[::-1], 0.3, GRID)][::-1] == alone

    def test_lowest_failing_trial_raises(self):
        a = ZeroSequence([0.0, 0.5j])
        near = PairedSequences(A=a, Z=ZeroSequence([0.01, 0.51j]))
        far = [PairedSequences(A=a, Z=ZeroSequence([x, 0.5j])) for x in (0.5, 0.6)]
        with pytest.raises(NearnessExceeded, match="nearness 0.5 "):
            perturbation_reports([near, far[0], near, far[1]], 0.2, GRID)
        with pytest.raises(NearnessExceeded, match="nearness 0.6 "):
            perturbation_reports([near, far[1], far[0]], 0.2, GRID)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.3, 1.5])
    def test_radius_outside_the_unit_interval_rejected(self, r):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            perturbation_reports(_trials("frostman20", 1), r, GRID)

    def test_empty_batch_and_unequal_lengths(self):
        assert perturbation_reports([], 0.3, GRID) == []
        short = PairedSequences(A=ZeroSequence([0.0]), Z=ZeroSequence([0.01]))
        with pytest.raises(ValueError, match="equal length"):
            perturbation_reports([short, _trials("frostman20", 1)[0]], 0.3, GRID)
