import itertools
import math
import random

import numpy as np
import pytest

from blaschke_lab import (
    BOUNDARY_MARGIN,
    DuplicatePoint,
    PairedSequences,
    SamplingExhausted,
    TargetVector,
    TruncationTooDeep,
    ZeroSequence,
    deinterlace,
    deinterlace_targets,
    frostman_example,
    interlace,
    interlace_targets,
    pairwise_rho,
    perturb_sample,
    pseudo_disk_to_euclidean,
    radial_sequence,
    rho,
)
from blaschke_lab import geometry
from blaschke_lab import sequences as seq_mod
from tests.conftest import peak_bytes, random_separated


class TestFrostmanExample:
    def test_first_point(self):
        seq = frostman_example(1)
        expected = 0.5 * complex(math.cos(2.0 / 3.0), math.sin(2.0 / 3.0))
        assert seq.values[0] == pytest.approx(expected)

    def test_moduli_and_arguments(self):
        seq = frostman_example(8)
        mods = np.abs(seq.values)
        args = np.angle(seq.values)
        for k in range(1, 9):
            assert mods[k - 1] == pytest.approx(1.0 - 0.5**k, abs=1e-15)
            assert args[k - 1] == pytest.approx((2.0 / 3.0) ** k, abs=1e-12)

    def test_deterministic(self):
        assert frostman_example(12) == frostman_example(12)

    def test_deep_truncation_supported(self):
        seq = frostman_example(49)
        assert len(seq) == 49

    def test_underflow_depth_rejected(self):
        with pytest.raises(TruncationTooDeep):
            frostman_example(50)

    def test_cap_rejected(self):
        with pytest.raises(TruncationTooDeep):
            frostman_example(61)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            frostman_example(0)


class TestRadialSequence:
    def test_radii(self):
        seq = radial_sequence(0.5, 3)
        assert np.allclose(seq.values, [0.5, 0.75, 0.875])

    def test_rotated_ray(self):
        seq = radial_sequence(0.5, 3, arg=math.pi / 2)
        assert np.allclose(seq.values, [0.5j, 0.75j, 0.875j])

    def test_consecutive_rho(self):
        # (1 - q) / (1 + q - q^(k+1)) at k = 1, frozen for q = 0.5
        seq = radial_sequence(0.5, 2)
        assert rho(seq.values[0], seq.values[1]) == pytest.approx(0.4, abs=1e-15)

    def test_rho_approaches_limit_ratio(self):
        q = 0.5
        seq = radial_sequence(q, 30)
        tail = rho(seq.values[-2], seq.values[-1])
        assert tail == pytest.approx((1.0 - q) / (1.0 + q), abs=1e-8)

    def test_bad_ratio_rejected(self):
        for q in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                radial_sequence(q, 3)

    def test_underflow_depth_rejected(self):
        # 1 - 0.1^20 rounds onto the boundary guard long before the cap
        with pytest.raises(TruncationTooDeep):
            radial_sequence(0.1, 20)


class TestPairedSequences:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            PairedSequences(A=ZeroSequence([0.1, 0.2]), Z=ZeroSequence([0.3]))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            PairedSequences(A=ZeroSequence([]), Z=ZeroSequence([]))

    def test_metrics(self):
        paired = PairedSequences(
            A=ZeroSequence([0.0, 0.5]), Z=ZeroSequence([0.1, 0.6])
        )
        assert paired.nearness == pytest.approx(
            max(rho(0.0, 0.1), rho(0.5, 0.6))
        )
        assert paired.separation == pytest.approx(
            min(rho(a, z) for a in (0.0, 0.5) for z in (0.1, 0.6))
        )
        assert paired.z_self_separation == pytest.approx(rho(0.1, 0.6))


class TestInterlace:
    def test_alternating_order(self):
        a = ZeroSequence([0.1, 0.2])
        z = ZeroSequence([0.3, 0.4])
        merged = interlace(a, z)
        assert np.allclose(merged.values, [0.1, 0.3, 0.2, 0.4])

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            interlace(ZeroSequence([0.1]), ZeroSequence([0.2, 0.3]))
        with pytest.raises(ValueError, match="equal lengths"):
            interlace_targets(TargetVector([1.0]), TargetVector([1.0, 2.0]))

    def test_shared_point_rejected(self):
        with pytest.raises(DuplicatePoint):
            interlace(ZeroSequence([0.1, 0.2]), ZeroSequence([0.2, 0.3]))

    def test_roundtrip(self):
        a = random_separated(1, 5, min_rho=0.2)
        z = random_separated(2, 5, min_rho=0.2)
        merged = interlace(a, z)
        back_a, back_z = deinterlace(merged)
        assert back_a == a
        assert back_z == z

    def test_targets_roundtrip(self):
        alpha = TargetVector([1.0, 2.0j])
        beta = TargetVector([-1.0, 0.5])
        merged = interlace_targets(alpha, beta)
        assert merged == TargetVector([1.0, -1.0, 2.0j, 0.5])
        back_a, back_b = deinterlace_targets(merged)
        assert back_a == alpha
        assert back_b == beta

    def test_odd_length_deinterlace_rejected(self):
        with pytest.raises(ValueError):
            deinterlace(ZeroSequence([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            deinterlace_targets(TargetVector([1.0]))

    def test_merged_carleson_positive_for_separated_sides(self):
        from blaschke_lab import BlaschkeProduct
        from tests.conftest import split_separated

        for seed in range(5):
            a, z = split_separated(seed, 4, 4, min_rho=0.4)
            merged = interlace(a, z)
            assert BlaschkeProduct(merged).carleson().delta > 0.0


def _draw_rounds(a, r, seed):
    """perturb_sample's draws, round by round, with each disk built by pseudo_disk_to_euclidean."""
    disks = [pseudo_disk_to_euclidean(p, r) for p in a]
    centers = np.array([d.center for d in disks], dtype=complex)
    radii = np.array([d.radius for d in disks])
    rng = random.Random(seed)
    while True:
        u = np.array([rng.random() for _ in range(len(a))])
        t = np.array([rng.random() for _ in range(len(a))])
        yield centers + radii * np.sqrt(u) * np.exp(2j * math.pi * t)


def _replayed(a, r, seed, min_sep, margin=False):
    """perturb_sample's rejection loop: the kept draws, their rho matrix and the number of rounds.

    With margin, a round holding a point past the boundary margin is
    redrawn as well.
    """
    for rounds, draws in enumerate(_draw_rounds(a, r, seed), 1):
        sep = pairwise_rho(draws, draws)
        np.fill_diagonal(sep, np.inf)
        inside = not margin or np.all(np.hypot(draws.real, draws.imag) < 1.0 - BOUNDARY_MARGIN)
        if np.max(np.diag(pairwise_rho(a.values, draws))) <= r and sep.min() >= min_sep and inside:
            return draws, sep, rounds


class TestPerturbSample:
    def test_nearness_bounded_by_radius(self):
        a = random_separated(4, 6, min_rho=0.3)
        paired = perturb_sample(a, 0.25, 9, min_sep=0.05)
        assert paired.nearness <= 0.25
        diag = np.diag(pairwise_rho(paired.A.values, paired.Z.values))
        assert np.all(diag <= 0.25)

    def test_min_sep_respected(self):
        a = random_separated(6, 6, min_rho=0.3)
        paired = perturb_sample(a, 0.2, 11, min_sep=0.08)
        assert paired.z_self_separation >= 0.08

    def test_deterministic_for_fixed_seed(self):
        a = random_separated(8, 5, min_rho=0.3)
        p1 = perturb_sample(a, 0.2, 123, min_sep=0.05)
        p2 = perturb_sample(a, 0.2, 123, min_sep=0.05)
        assert np.array_equal(p1.Z.values, p2.Z.values)

    def test_seed_changes_draw(self):
        a = random_separated(8, 5, min_rho=0.3)
        p1 = perturb_sample(a, 0.2, 123, min_sep=0.05)
        p2 = perturb_sample(a, 0.2, 124, min_sep=0.05)
        assert not np.array_equal(p1.Z.values, p2.Z.values)
        assert p2.nearness <= 0.2

    def test_tiny_radius_tracks_centers(self):
        a = random_separated(10, 4, min_rho=0.3)
        paired = perturb_sample(a, 1e-9, 0, min_sep=0.05)
        assert paired.nearness <= 1e-9
        assert np.max(np.abs(paired.Z.values - a.values)) < 1e-8

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_draws_are_those_of_the_disks_one_point_at_a_time(self, seed):
        a, r, min_sep = frostman_example(20), 0.3, 0.01
        draws, sep, _ = _replayed(a, r, seed, min_sep)
        paired = perturb_sample(a, r, seed, min_sep=min_sep)
        assert paired.Z.values.tobytes() == draws.tobytes()
        assert paired.z_self_separation == float(sep.min())

    @pytest.mark.parametrize("seed", [0, 11])
    def test_each_round_measures_the_centres_once(self, monkeypatch, seed):
        # A round measures its draws' rho(a_n, z_n) in one entry-by-entry
        # _rho call on the centres' array and cached sizes, shaped like the
        # draws, where a pairwise matrix was built to read its diagonal.
        a, r, min_sep = frostman_example(20), 0.5, 0.4
        _, _, rounds = _replayed(a, r, seed, min_sep)
        assert rounds > 1
        calls = []
        original = seq_mod._rho

        def recorded(x, z, sizes, buffers):
            calls.append((x, sizes, np.shape(z)))
            return original(x, z, sizes, buffers)

        monkeypatch.setattr(seq_mod, "_rho", recorded)
        perturb_sample(a, r, seed, min_sep=min_sep)
        centres = [shape for x, sizes, shape in calls if x is a.values]
        assert centres == [(1, len(a))] * rounds
        assert all(sizes is a._sizes for x, sizes, _ in calls if x is a.values)

    @pytest.mark.parametrize("case", ["rounds", "margin"])
    def test_a_batch_keeps_each_trials_replayed_draws(self, case):
        # Trials drawn together each keep the draws of their own rejection
        # loop run alone: those that need one round or many, and those that
        # redraw a round passing every test but the boundary margin.
        if case == "rounds":
            a, r, min_sep, seeds = frostman_example(20), 0.5, 0.4, list(range(12))
        else:
            master = random.Random(2)
            a, r, min_sep, seeds = frostman_example(49), 0.6, 0.1, [master.getrandbits(63) for _ in range(20)]
        pairs = seq_mod._perturb_samples(a, r, seeds, min_sep=min_sep)
        assert len(pairs) == len(seeds)
        rounds = []
        for seed, paired in zip(seeds, pairs):
            draws, sep, count = _replayed(a, r, seed, min_sep, margin=True)
            assert paired.A is a
            assert paired.Z.values.tobytes() == draws.tobytes()
            assert paired.z_self_separation == float(sep.min())
            rounds.append(count)
        if case == "rounds":
            assert min(rounds) == 1 and max(rounds) > 2
        else:
            assert any(_replayed(a, r, seed, min_sep)[2] < count for seed, count in zip(seeds, rounds))

    def test_memory_is_linear_in_the_length(self):
        # No round holds an N x N matrix: rho(a_n, z_n) goes entry by entry,
        # and the draws' separation ROW_BLOCK (trial, index) rows at a time,
        # each row holding a gathered row, its gaps, kernels and distances.
        n = 2000
        rng = np.random.default_rng(0)
        a = ZeroSequence(0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n)))
        r, min_sep = 1e-6, 0.5 * a.min_separation
        bound = 4 * geometry.ROW_BLOCK * n * 16 + 32 * n * 8
        assert peak_bytes(lambda: perturb_sample(a, r, 0, min_sep=min_sep)) <= bound

    def test_a_rejected_round_may_draw_outside_the_margin(self):
        # The deepest centre lies 2^-49 from the circle, so some rounds draw
        # a point past the boundary margin; a round rejected for min_sep is
        # redrawn whatever it holds.
        a = frostman_example(49)
        r, min_sep = 0.6, 0.99 * a.min_separation
        draws, _, rounds = _replayed(a, r, 0, min_sep)
        outside = [
            bool(np.any(np.hypot(d.real, d.imag) >= 1.0 - BOUNDARY_MARGIN))
            for d in itertools.islice(_draw_rounds(a, r, 0), rounds)
        ]
        assert any(outside[:-1]) and not outside[-1]
        assert perturb_sample(a, r, 0, min_sep=min_sep).Z.values.tobytes() == draws.tobytes()

    @pytest.mark.parametrize("master", [2, 4, 5])
    def test_a_round_drawing_past_the_margin_is_redrawn(self, master):
        # The trial seeds of perturb --n 49 --radius 0.6 --trials 20 --seed 2,
        # 4 or 5: some trials meet a round that passes the radius and min_sep
        # tests but holds a point past the boundary margin, and redraw it.
        a, r = frostman_example(49), 0.6
        rng = random.Random(master)
        redrawn = 0
        for seed in [rng.getrandbits(63) for _ in range(20)]:
            paired = perturb_sample(a, r, seed)
            draws, _, rounds = _replayed(a, r, seed, 0.1, margin=True)
            redrawn += _replayed(a, r, seed, 0.1)[2] < rounds
            assert paired.Z.values.tobytes() == draws.tobytes()
            moduli = np.hypot(paired.Z.values.real, paired.Z.values.imag)
            assert np.all(moduli < 1.0 - BOUNDARY_MARGIN)
            assert paired.nearness <= r and paired.z_self_separation >= 0.1
        assert redrawn > 0

    def test_seed_must_be_a_non_negative_int(self):
        # random.Random would seed None from the OS, and -1 like 1
        a = ZeroSequence([0.0, 0.5])
        for seed in (None, -1, 1.5, True):
            with pytest.raises(ValueError):
                perturb_sample(a, 0.2, seed, min_sep=0.05)
        for seed in (0, 2**70):
            assert perturb_sample(a, 0.2, seed, min_sep=0.05).nearness <= 0.2

    def test_min_sep_above_self_separation_rejected(self):
        a = ZeroSequence([0.0, 0.5])
        with pytest.raises(ValueError):
            perturb_sample(a, 0.2, 0, min_sep=0.6)

    def test_bad_radius_rejected(self):
        a = ZeroSequence([0.1])
        for r in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                perturb_sample(a, r, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            perturb_sample(ZeroSequence([]), 0.2, 0)

    def test_exhaustion_reported(self, monkeypatch):
        monkeypatch.setattr(seq_mod, "RESAMPLING_ROUNDS", 0)
        a = ZeroSequence([0.0, 0.5])
        with pytest.raises(SamplingExhausted):
            perturb_sample(a, 0.2, 0, min_sep=0.05)

    def test_pseudohyperbolic_comparison_inequality(self):
        # 1 - rho(a_j, a_k) <= ((1+r)/(1-r))^2 (1 - rho(z_j, z_k)) on all pairs
        for seed in range(30):
            r = (0.2, 0.4, 0.6)[seed % 3]
            a = random_separated(seed, 6, min_rho=0.3)
            paired = perturb_sample(a, r, seed, min_sep=0.01)
            c_sq = ((1.0 + r) / (1.0 - r)) ** 2
            rho_a = pairwise_rho(a.values, a.values)
            rho_z = pairwise_rho(paired.Z.values, paired.Z.values)
            mask = ~np.eye(len(a), dtype=bool)
            assert np.all(
                1.0 - rho_a[mask] <= c_sq * (1.0 - rho_z[mask]) + 1e-12
            )
