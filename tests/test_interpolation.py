import math
import warnings

import numpy as np
import pytest

from blaschke_lab import (
    BlaschkeProduct,
    CircleGrid,
    ContractionViolated,
    DiskPoint,
    MaxIterExceeded,
    RootVerificationFailed,
    SeparationTooSmall,
    TargetVector,
    ZeroCollision,
    ZeroSequence,
    frostman_example,
    frostman_shift_zeros,
    interlace_targets,
    interpolate_union,
    lebesgue_constant,
    nearby_iterate,
    perturb_sample,
    radial_sequence,
    scan_circle,
    solve_kb,
    sup_norm,
)
from blaschke_lab import blaschke, cli, geometry
from blaschke_lab.interpolation import ROOT_RESIDUAL_TOL
from tests.conftest import (
    clark_eigenvalues,
    kernel_solve_oracle,
    kw_interpolant,
    lagrange_rows,
    mp_interpolant,
    mp_product,
    peak_bytes,
    random_deep_sequence,
    random_delta_sequence,
    random_separated,
    split_separated,
)

GRID = CircleGrid(base_count=256, refinement_rounds=1)

CIRCLE_256 = np.exp(2j * np.pi * np.arange(256) / 256)


class TestSolveKb:
    def test_degree_one_constant(self):
        rep = solve_kb(BlaschkeProduct(ZeroSequence([0.0])), TargetVector([2.0 - 1j]))
        for z in (0.0, 0.5, -0.3j, 0.9):
            assert rep(z) == pytest.approx(2.0 - 1j)

    def test_frozen_pair_against_kernel_oracle(self):
        b = BlaschkeProduct(ZeroSequence([0.0, 0.5]))
        rep = solve_kb(b, TargetVector([1.0, 0.0]))
        assert rep(0.0) == pytest.approx(1.0, abs=1e-12)
        assert rep(0.5) == pytest.approx(0.0, abs=1e-12)
        oracle = kernel_solve_oracle([0.0, 0.5], [1.0, 0.0])
        assert np.max(np.abs(rep(CIRCLE_256) - oracle(CIRCLE_256))) < 1e-8

    def test_nodes_reproduced_on_delta_sequences(self):
        for seed in range(6):
            seq = random_delta_sequence(seed, 12, delta_min=0.3)
            rng = np.random.default_rng(seed)
            alpha = TargetVector(
                rng.normal(size=12) + 1j * rng.normal(size=12)
            )
            rep = solve_kb(BlaschkeProduct(seq), alpha)
            err = np.max(np.abs(rep(seq.values) - alpha.values))
            assert err <= 1e-9 * (1.0 + alpha.sup_norm)

    def test_two_forms_agree_on_circle(self):
        seq = random_delta_sequence(9, 10, delta_min=0.3)
        b = BlaschkeProduct(seq)
        alpha = TargetVector(np.exp(1j * np.arange(10)))
        oracle = kernel_solve_oracle(seq.values, alpha.values)
        assert np.max(np.abs(solve_kb(b, alpha)(CIRCLE_256) - oracle(CIRCLE_256))) < 1e-6
        for w in (0.0, 0.5, 0.9j, -0.99):
            targets, exact = kw_interpolant(b, w)
            expected = exact(CIRCLE_256)
            err = np.max(np.abs(solve_kb(b, targets)(CIRCLE_256) - expected))
            assert err <= 1e-10 * np.max(np.abs(expected)), w

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_kb(BlaschkeProduct(ZeroSequence([0.1])), TargetVector([1.0, 2.0]))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_kb(BlaschkeProduct(ZeroSequence([])), TargetVector([]))

    def test_ill_conditioned_flagged_but_lagrange_survives(self, tmp_path):
        def results(zeros, targets):
            path = tmp_path / "seq.json"
            cli.write_sequence_file(path, ZeroSequence(zeros))
            config = cli.validate_config({
                "kind": "interpolate",
                "inputs": {
                    "sequence": {"path": str(path)},
                    "targets": {"values": [[t.real, t.imag] for t in map(complex, targets)]},
                },
            })
            return cli.run(config).results

        close = results([0.9, 0.9 + 1e-10], [1.0, -1.0])
        radial = results(radial_sequence(0.5, 4).values, [1.0, 1j, -1.0, 0.5])
        assert close["ill_conditioned"] is True
        assert radial["ill_conditioned"] is False
        keys = {"degree", "ill_conditioned", "sup_norm", "lebesgue_constant"}
        assert set(close) == set(radial) == keys
        # the flag warns of the circle values; the nodes take their targets exactly
        nodes, targets = ZeroSequence([0.9, 0.9 + 1e-10]), TargetVector([1.0, -1.0])
        rep = solve_kb(BlaschkeProduct(nodes), targets)
        assert rep(nodes.values).tobytes() == targets.values.tobytes()

    def test_solve_memory_stays_small(self):
        b = BlaschkeProduct(random_deep_sequence(2, 1000, 1e-3, 0.5))
        alpha = TargetVector(np.ones(1000))
        assert peak_bytes(lambda: solve_kb(b, alpha)) < 1_000_000


class TestSupNorm:
    def test_constant(self):
        rep = solve_kb(BlaschkeProduct(ZeroSequence([0.0])), TargetVector([3j]))
        assert sup_norm(rep, GRID) == pytest.approx(3.0, abs=1e-9)

    def test_single_kernel_peak(self):
        # f(z) = 0.75 / (1 - 0.5 z) peaks at zeta = 1 with value 1.5
        rep = solve_kb(BlaschkeProduct(ZeroSequence([0.5])), TargetVector([1.0]))
        assert sup_norm(rep, GRID) == pytest.approx(1.5, abs=1e-9)

    def test_dominates_targets(self):
        seq = random_delta_sequence(3, 8, delta_min=0.3)
        alpha = TargetVector(np.exp(2j * np.arange(8)))
        rep = solve_kb(BlaschkeProduct(seq), alpha)
        assert sup_norm(rep, GRID) >= alpha.sup_norm - 1e-9

    def test_accepts_plain_callable(self):
        value = sup_norm(lambda z: np.full(np.shape(z), 0.25j), GRID)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_never_below_grid_maximum(self):
        rep = solve_kb(BlaschkeProduct(ZeroSequence([0.5])), TargetVector([1.0]))
        grid_max = float(np.max(np.abs(rep(CIRCLE_256))))
        assert sup_norm(rep, GRID) >= grid_max - 1e-15


class TestLebesgueConstant:
    def test_degree_one_is_unity(self):
        assert lebesgue_constant(BlaschkeProduct(ZeroSequence([0.0])), GRID) == 1.0

    def test_frozen_pair(self):
        # basis row sums at zeta = 1: |L1| + |L2| = 2 + 3
        b = BlaschkeProduct(ZeroSequence([0.0, 0.5]))
        assert lebesgue_constant(b, GRID) == pytest.approx(5.0, abs=1e-9)

    def test_attained_by_aligned_targets(self):
        b = BlaschkeProduct(ZeroSequence([0.0, 0.5]))
        m = lebesgue_constant(b, GRID)
        rep = solve_kb(b, TargetVector([-1.0, 1.0]))
        assert sup_norm(rep, GRID) == pytest.approx(m, abs=1e-9)

    def test_brute_force_from_below(self):
        seq = random_separated(21, 4, min_rho=0.3)
        b = BlaschkeProduct(seq)
        m = lebesgue_constant(b, GRID)
        rng = np.random.default_rng(0)
        best = 0.0
        for _ in range(40):
            alpha = TargetVector(np.exp(2j * np.pi * rng.uniform(size=4)))
            best = max(best, sup_norm(solve_kb(b, alpha), GRID))
        assert best <= m + 1e-9
        assert best >= 0.8 * m

    def test_rotation_invariant(self):
        seq = random_separated(25, 5, min_rho=0.25)
        lam = np.exp(0.7j)
        rotated = ZeroSequence(lam * seq.values)
        m1 = lebesgue_constant(BlaschkeProduct(seq), GRID)
        m2 = lebesgue_constant(BlaschkeProduct(rotated), GRID)
        assert m1 == pytest.approx(m2, rel=1e-8)


def _deep_rep(n, seed=2):
    """The interpolant of unimodular targets on a seeded deep set of n zeros."""
    seq = random_deep_sequence(seed, n, depth_min=1e-3)
    alpha = TargetVector(np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n)))
    return solve_kb(BlaschkeProduct(seq), alpha)


def _dyadic_set(shifts):
    """(1 - 2^-k) exp(2 pi i (j + shifts[k-1]) / 2^k), j < 2^k, k = 1..len(shifts)."""
    return ZeroSequence(np.concatenate([
        (1.0 - 2.0**-k) * np.exp(2j * np.pi * (np.arange(2**k) + shift) / 2**k)
        for k, shift in enumerate(shifts, start=1)
    ]))


# The dyadic set of 254 zeros, the same turned by seeded shares of each level's
# spacing, a deep set of 500 zeros and an unseparated set of 254 zeros.
ORACLE_SETS = {
    "dyadic": lambda: _dyadic_set([0.5 * (k % 2) for k in range(1, 8)]),
    "rotated": lambda: _dyadic_set(np.random.default_rng(11).uniform(size=7)),
    "deep": lambda: random_deep_sequence(11, 500, 1e-3, 0.5),
    "unseparated": lambda: random_deep_sequence(12, 254, 1e-2, 0.5),
}


class TestLagrangeBlocks:
    """Interpolant values go ROW_BLOCK points at a time, each point's Cauchy sum on its own."""

    @pytest.mark.parametrize("block", [1, 7, blaschke.ROW_BLOCK])
    def test_call_blocks_keep_the_bits_of_one_whole_batch(self, monkeypatch, block):
        rep = _deep_rep(50)
        # circle points, interior points, and nodes, whose values are exact
        points = np.concatenate([CIRCLE_256, 0.5 * CIRCLE_256[::3], rep.space.zeros.values[::7]])
        monkeypatch.setattr(geometry, "ROW_BLOCK", points.size)
        whole = rep(points)
        monkeypatch.setattr(geometry, "ROW_BLOCK", block)
        assert rep(points).tobytes() == whole.tobytes()

    def test_one_call_equals_one_point_calls(self):
        rep = _deep_rep(50)
        points = CIRCLE_256[:64] * np.linspace(0.5, 1.0, 64)
        singles = np.array([rep(complex(z)) for z in points])
        assert rep(points).tobytes() == singles.tobytes()

    def test_sup_norm_equals_the_scan_of_the_callable(self):
        # sup_norm scans circle_modulus on the injected grid; the scan of |rep(zeta)|, which
        # multiplies by the computed B(zeta), agrees within the N eps Lambda sup|alpha| bound.
        rep = _deep_rep(50)
        grid = GRID.with_injected(rep.space.zeros)
        column, _, _ = scan_circle(rep.circle_modulus, grid, mode="max")
        assert sup_norm(rep, GRID).hex() == float(column).hex()
        bound = 50 * np.finfo(float).eps * lebesgue_constant(rep.space, GRID) * rep.lagrange_coeffs.sup_norm
        assert abs(sup_norm(rep, GRID) - sup_norm(lambda z: rep(z), grid)) <= bound

    def test_lebesgue_constant_equals_the_lagrange_row_sum_scan(self):
        # The weighted Frostman maximum against the circle scan of sum_j |L_j|, built from cofactors.
        grid = CircleGrid(base_count=1024)
        for name, make in ORACLE_SETS.items():
            b = BlaschkeProduct(make())

            def row_sum(angles):
                return np.sum(np.abs(lagrange_rows(b, np.exp(1j * angles))), axis=1)

            value, _, _ = scan_circle(row_sum, grid.with_injected(b.zeros), mode="max")
            assert lebesgue_constant(b, grid) == pytest.approx(max(value, 1.0), rel=1e-13, abs=0.0), name

    @pytest.mark.parametrize("name", ["dyadic-126", "deep-50", "deep-200"])
    def test_values_match_mpmath(self, name):
        # Within N eps Lambda sup|alpha|, the bound that ill_conditioned reports, at interior
        # points, at points 1e-9 from a node and on the circle; circle_modulus at its circle
        # points against |f| / |B| there, the modulus of the exact Cauchy column.
        mpmath = pytest.importorskip("mpmath")
        if name == "dyadic-126":
            seq = _dyadic_set([0.5 * (k % 2) for k in range(1, 7)])
            rng = np.random.default_rng(5)
            rep = solve_kb(BlaschkeProduct(seq), TargetVector(rng.normal(size=len(seq)) + 1j * rng.normal(size=len(seq))))
        else:
            rep = _deep_rep(int(name[5:]))
        zeros = rep.space.zeros.values
        alpha = rep.lagrange_coeffs
        near = zeros[::9] * (1.0 - 1e-9 / np.abs(zeros[::9]))
        args = np.angle(zeros[::9])
        angles = np.concatenate([args, 2.0 * np.pi * np.arange(0, 256, 16) / 256])
        points = np.concatenate([0.5 * CIRCLE_256[3::16], [0.0, 0.3 - 0.2j], near, np.exp(1j * angles)])
        bound = len(zeros) * np.finfo(float).eps * lebesgue_constant(rep.space, GRID) * alpha.sup_norm
        with mpmath.workdps(40):
            exact = mp_interpolant(rep.space, alpha.values)
            product = mp_product(rep.space)
            errors = [float(abs(mpmath.mpc(complex(v)) - exact(z))) for v, z in zip(rep(points), points)]
            circle = np.exp(1j * angles)
            column = [abs(exact(z)) / abs(product(z)) for z in circle]
            errors += [float(abs(m - c)) for m, c in zip(rep.circle_modulus(angles), column)]
        assert max(errors) <= bound

    def test_nodes_are_exact_and_warning_free(self):
        rep = _deep_rep(50)
        nodes = rep.space.zeros.values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rep(nodes).tobytes() == rep.lagrange_coeffs.values.tobytes()
            assert rep(complex(nodes[3])) == rep.lagrange_coeffs[3]
            # a node among other points gets its value alone, like the oracle's unit row
            mixed = np.array([0.1j, nodes[7], 0.5])
            assert rep(mixed)[1] == rep.lagrange_coeffs[7]
            assert np.max(np.abs(rep(mixed) - lagrange_rows(rep.space, mixed) @ rep.lagrange_coeffs.values)) <= 1e-10
        with pytest.raises(ValueError, match="closed unit disk"):
            rep(1.01)

    def test_memory_is_bounded_by_the_block(self):
        n = 500
        rep = _deep_rep(n, seed=0)
        points = CircleGrid().with_injected(rep.space.zeros).angles().size
        # eight complex temporaries of one block, and 16 float arrays of grid length
        bound = 8 * blaschke.ROW_BLOCK * n * 16 + 16 * points * 8
        assert peak_bytes(lambda: sup_norm(rep)) <= bound
        assert peak_bytes(lambda: lebesgue_constant(rep.space)) <= bound


class TestInterpolateUnion:
    def test_two_term_construction(self):
        u = interpolate_union(
            BlaschkeProduct(ZeroSequence([0.0])),
            BlaschkeProduct(ZeroSequence([0.5])),
            TargetVector([1.0]),
            TargetVector([1.0]),
        )
        assert u(0.0) == pytest.approx(1.0, abs=1e-12)
        assert u(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_beta_kills_g2(self):
        a, z = split_separated(1, 3, 3, min_rho=0.45)
        u = interpolate_union(
            BlaschkeProduct(a),
            BlaschkeProduct(z),
            TargetVector([1.0, 2.0, -1j]),
            TargetVector([0.0, 0.0, 0.0]),
        )
        pts = np.array([0.1, -0.3j, 0.2 + 0.4j])
        assert np.max(np.abs(u.G2(pts))) < 1e-14
        assert np.max(np.abs(u(z.values))) < 1e-12

    def test_matches_merged_product_oracle(self):
        # The last input turns both products by a non-trivial rotation.
        cases = [(seed, 1.0, 1.0) for seed in range(5)] + [(5, np.exp(0.7j), np.exp(-2.3j))]
        for seed, rot_b, rot_c in cases:
            a, z = split_separated(seed, 4, 4, min_rho=0.45)
            rng = np.random.default_rng(seed)
            alpha = TargetVector(rng.normal(size=4) + 1j * rng.normal(size=4))
            beta = TargetVector(rng.normal(size=4) + 1j * rng.normal(size=4))
            u = interpolate_union(
                BlaschkeProduct(a, rot_b), BlaschkeProduct(z, rot_c), alpha, beta
            )

            gamma = interlace_targets(alpha, beta)
            norm = 1.0 + gamma.sup_norm
            assert np.max(np.abs(u(a.values) - alpha.values)) <= 1e-7 * norm
            assert np.max(np.abs(u(z.values) - beta.values)) <= 1e-7 * norm
            assert np.max(np.abs(u.G1(z.values))) <= 1e-10
            assert np.max(np.abs(u.G2(a.values))) <= 1e-10
            # every part takes its node values exactly
            nothing = np.zeros(4, dtype=complex).tobytes()
            for part, on_a, on_z in ((u.G, alpha.values.tobytes(), beta.values.tobytes()),
                                     (u.G1, alpha.values.tobytes(), nothing),
                                     (u.G2, nothing, beta.values.tobytes())):
                assert part(a.values).tobytes() == on_a
                assert part(z.values).tobytes() == on_z

            merged = ZeroSequence(np.concatenate([a.values, z.values]))
            oracle = solve_kb(
                BlaschkeProduct(merged),
                TargetVector(np.concatenate([alpha.values, beta.values])),
            )
            assert np.max(np.abs(u(CIRCLE_256) - oracle(CIRCLE_256))) <= 1e-6
            if rot_b == rot_c == 1.0:
                assert u(CIRCLE_256).tobytes() == oracle(CIRCLE_256).tobytes()

    @pytest.mark.parametrize("rot_b, rot_c", [(1.0, 1.0), (np.exp(0.7j), np.exp(-2.3j))])
    @pytest.mark.parametrize("sizes", [(4, 4), (3, 5), (6, 2)])
    def test_tilde_gamma_matches_the_papers_formula(self, sizes, rot_b, rot_c):
        # (-conj(a_j)/|a_j|) conj(alpha_j / C(a_j)) / conj(B_j(a_j)) and its C-side mirror,
        # from each product's own cofactors and cross values, in interleaved order.
        n, m = sizes
        a, z = split_separated(n + 7 * m, n, m, min_rho=0.4)
        rng = np.random.default_rng(n)
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        beta = rng.normal(size=m) + 1j * rng.normal(size=m)
        b, c = BlaschkeProduct(a, rot_b), BlaschkeProduct(z, rot_c)
        u = interpolate_union(b, c, alpha, beta)

        def paper(own, other, targets):
            zeros = own.zeros.values
            turn = np.array([1.0 if w == 0 else -np.conj(w) / abs(w) for w in zeros])
            cofactors = np.array([own.cofactor(j)(complex(w)) for j, w in enumerate(zeros)])
            return turn * np.conj(targets / other(zeros)) / np.conj(cofactors)

        side_a, side_z = paper(b, c, alpha), paper(c, b, beta)
        expected = [x for pair in zip(side_a, side_z) for x in pair]
        expected += list(side_a[m:]) + list(side_z[n:])
        assert len(u.tilde_gamma) == n + m
        tolerance = (8 + n + m) * np.finfo(float).eps
        for got, want in zip(u.tilde_gamma, expected):
            assert abs(got - want) <= tolerance * abs(want)

    def test_parts_sum_pointwise(self):
        a, z = split_separated(11, 3, 4, min_rho=0.45)
        u = interpolate_union(
            BlaschkeProduct(a),
            BlaschkeProduct(z),
            TargetVector([1.0, -1.0, 2j]),
            TargetVector([0.5, 0.5, 0.5, 0.5]),
        )
        pts = 0.8 * CIRCLE_256[::16]
        assert np.max(np.abs(u(pts) - (u.G1(pts) + u.G2(pts)))) < 1e-10
        assert len(u.tilde_gamma) == 7

    def test_shared_zero_rejected(self):
        with pytest.raises(ZeroCollision):
            interpolate_union(
                BlaschkeProduct(ZeroSequence([0.3])),
                BlaschkeProduct(ZeroSequence([0.3 + 1e-14])),
                TargetVector([1.0]),
                TargetVector([1.0]),
            )

    def test_tiny_separation_rejected(self):
        with pytest.raises(SeparationTooSmall):
            interpolate_union(
                BlaschkeProduct(ZeroSequence([0.3])),
                BlaschkeProduct(ZeroSequence([0.3 + 1e-8])),
                TargetVector([1.0]),
                TargetVector([1.0]),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interpolate_union(
                BlaschkeProduct(ZeroSequence([0.1])),
                BlaschkeProduct(ZeroSequence([0.5])),
                TargetVector([1.0, 2.0]),
                TargetVector([1.0]),
            )


class TestNearbyIterate:
    def test_unperturbed_nodes_converge_immediately(self):
        seq = random_separated(2, 4, min_rho=0.3)
        b = BlaschkeProduct(seq)
        alpha = TargetVector([1.0, -1.0, 1j, 0.5])
        rep, trace = nearby_iterate(b, seq, alpha, grid=GRID)
        assert trace.residual_sup[-1] <= 1e-8
        assert len(trace.residual_sup) == 1
        assert trace.residual_sup[0] == 0.0

    def test_degree_one_constant(self):
        b = BlaschkeProduct(ZeroSequence([0.0]))
        rep, trace = nearby_iterate(
            b, ZeroSequence([0.1]), TargetVector([2.0]), grid=GRID
        )
        assert trace.residual_sup[-1] <= 1e-8
        assert rep(0.1) == pytest.approx(2.0)

    def test_converges_and_interpolates(self):
        seq = random_separated(5, 5, min_rho=0.3)
        b = BlaschkeProduct(seq)
        m = lebesgue_constant(b, GRID)
        paired = perturb_sample(seq, 0.8 / (2.0 * m), 7, min_sep=0.01)
        alpha = TargetVector([1.0, 1j, -0.5, 0.25, 2.0])
        rep, trace = nearby_iterate(b, paired.Z, alpha, grid=GRID)
        assert trace.residual_sup[-1] <= 1e-8
        assert np.max(np.abs(rep(paired.Z.values) - alpha.values)) <= 2e-8
        assert trace.M_used == pytest.approx(m)

    def test_evaluates_b_at_the_nodes_once(self, monkeypatch):
        # every step's interpolant is B times its column at the nodes, and B there does not change
        seq = random_separated(5, 5, min_rho=0.3)
        b = BlaschkeProduct(seq)
        paired = perturb_sample(seq, 0.8 / (2.0 * lebesgue_constant(b, GRID)), 7, min_sep=0.01)
        alpha = TargetVector([1.0, 1j, -0.5, 0.25, 2.0])
        points = []
        evaluate = BlaschkeProduct.evaluate
        monkeypatch.setattr(BlaschkeProduct, "evaluate", lambda self, z: points.append(z) or evaluate(self, z))
        for tol, steps in ((1e-2, 3), (1e-12, 12)):
            points.clear()
            _, trace = nearby_iterate(b, paired.Z, alpha, tol=tol, grid=GRID)
            assert len(trace.residual_sup) == steps
            assert [np.array_equal(z, paired.Z.values) for z in points] == [True]

    def test_residuals_below_bound_curve(self):
        for seed in range(5):
            seq = random_separated(seed, 4, min_rho=0.35)
            b = BlaschkeProduct(seq)
            m = lebesgue_constant(b, GRID)
            paired = perturb_sample(seq, 0.8 / (2.0 * m), seed, min_sep=0.01)
            alpha = TargetVector(np.exp(1j * np.arange(4)))
            _, trace = nearby_iterate(b, paired.Z, alpha, grid=GRID)
            for res, bound in zip(trace.residual_sup, trace.bound_curve):
                assert res <= bound * 1.1 + 1e-15

    def test_contraction_violated_far_nodes(self):
        seq = ZeroSequence([0.0, 0.5])
        b = BlaschkeProduct(seq)
        far = ZeroSequence([-0.6, 0.6j])
        with pytest.raises(ContractionViolated):
            nearby_iterate(b, far, TargetVector([1.0, 1.0]), grid=GRID)

    def test_marginal_band_warns_but_runs(self):
        seq = random_separated(13, 3, min_rho=0.4)
        b = BlaschkeProduct(seq)
        m = lebesgue_constant(b, GRID)
        threshold = 1.0 / (2.0 * m)
        paired = perturb_sample(seq, 1.2 * threshold, 2, min_sep=0.005)
        assert paired.nearness >= threshold  # the draw lands in the band
        with pytest.warns(RuntimeWarning, match="without a convergence guarantee"):
            rep, trace = nearby_iterate(
                b, paired.Z, TargetVector([1.0, -1.0, 1j]), grid=GRID, max_iter=200
            )
        assert trace.contraction_marginal

    def test_max_iter_exceeded(self):
        seq = random_separated(17, 4, min_rho=0.3)
        b = BlaschkeProduct(seq)
        m = lebesgue_constant(b, GRID)
        paired = perturb_sample(seq, 0.8 / (2.0 * m), 11, min_sep=0.01)
        with pytest.raises(MaxIterExceeded):
            nearby_iterate(
                b, paired.Z, TargetVector([1.0, 1.0, 1.0, 1.0]), max_iter=1, grid=GRID
            )

    def test_validation(self):
        b = BlaschkeProduct(ZeroSequence([0.1, 0.2]))
        with pytest.raises(ValueError):
            nearby_iterate(b, ZeroSequence([0.15]), TargetVector([1.0, 1.0]), grid=GRID)
        with pytest.raises(ValueError):
            nearby_iterate(
                b,
                ZeroSequence([0.15, 0.25]),
                TargetVector([1.0, 1.0]),
                max_iter=0,
                grid=GRID,
            )


class TestFrostmanShiftZeros:
    def test_degree_one(self):
        roots = frostman_shift_zeros(
            BlaschkeProduct(ZeroSequence([0.0])), DiskPoint(0.3, -0.2)
        )
        assert roots.values[0] == pytest.approx(0.3 - 0.2j)

    def test_quadratic_closed_form(self):
        # z (0.5 - z) / (1 - 0.5 z) = 0.1 reduces to z^2 - 0.55 z + 0.1 = 0
        b = BlaschkeProduct(ZeroSequence([0.0, 0.5]))
        roots = frostman_shift_zeros(b, DiskPoint(0.1, 0.0))
        expected = sorted(np.roots([1.0, -0.55, 0.1]), key=lambda w: w.imag)
        got = sorted(roots.values, key=lambda w: w.imag)
        assert np.allclose(got, expected, atol=1e-12)

    def test_zero_shift_recovers_zeros(self):
        seq = random_separated(29, 6, min_rho=0.25)
        b = BlaschkeProduct(seq)
        roots = frostman_shift_zeros(b, DiskPoint(0.0, 0.0))
        assert np.allclose(
            sorted(roots.values, key=lambda w: (w.real, w.imag)),
            sorted(seq.values, key=lambda w: (w.real, w.imag)),
            atol=1e-10,
        )

    def test_residuals_and_count(self):
        for seed in range(6):
            seq = random_separated(seed, 8, min_rho=0.2)
            b = BlaschkeProduct(seq)
            rng = np.random.default_rng(seed)
            a = 0.7 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
            roots = frostman_shift_zeros(b, DiskPoint(a.real, a.imag))
            assert len(roots) == b.degree
            assert np.all(np.abs(roots.values) < 1.0)
            assert np.max(np.abs(b(roots.values) - a)) <= 1e-8

    def test_deterministic_ordering(self):
        seq = random_separated(37, 7, min_rho=0.2)
        b = BlaschkeProduct(seq)
        r1 = frostman_shift_zeros(b, DiskPoint(0.2, 0.3))
        r2 = frostman_shift_zeros(b, DiskPoint(0.2, 0.3))
        assert np.array_equal(r1.values, r2.values)
        phases = np.angle(r1.values) % (2.0 * np.pi)
        assert np.all(np.diff(phases) >= -1e-15)

    def test_degree_cap(self):
        # 41 is past where monomial-coefficient root finding degrades; sweeps on the factored form have no cap.
        b = BlaschkeProduct(radial_sequence_like(41))
        roots = frostman_shift_zeros(b, DiskPoint(0.1, 0.0))
        assert len(roots) == 41
        assert np.max(np.abs(b(roots.values) - 0.1)) <= 1e-8

    @pytest.mark.parametrize(
        "seq, a",
        [
            *(pytest.param(random_separated(seed, 30, min_rho=0.2, rmax=0.95), 0.4 * np.exp(1j * seed),
                           id=f"separated-{seed}") for seed in range(4)),
            pytest.param(frostman_example(20), 0.3 + 0.1j, id="frostman-20"),
            pytest.param(frostman_example(20), 0.9 + 0j, id="frostman-20-at-0.9"),
        ],
    )
    def test_roots_are_the_clark_eigenvalues(self, seq, a):
        b = BlaschkeProduct(seq)
        roots = frostman_shift_zeros(b, DiskPoint(a.real, a.imag)).values
        gaps = np.abs(roots[:, None] - clark_eigenvalues(b, a)[None, :])
        # each root has its own nearest eigenvalue
        assert sorted(gaps.argmin(axis=1)) == list(range(len(seq)))
        assert gaps.min(axis=1).max() <= 1e-12

    @pytest.mark.parametrize("a", [1e-300j, 1e-310 + 1e-310j, 5e-324])
    def test_tiny_shift_points(self, a):
        # The roots lie within |a w_j| of the zeros: a seed that close starts on
        # its zero, and below the normal range the zeros are the roots.  A gap
        # of that size would overflow B'/B's pole terms.
        for seq in (frostman_example(20), radial_sequence(0.5, 45), ZeroSequence([0.0, 0.5, -0.5j, 0.3 + 0.3j])):
            b = BlaschkeProduct(seq)
            roots = frostman_shift_zeros(b, DiskPoint(a.real, a.imag))
            assert np.max(np.abs(np.sort_complex(roots.values) - np.sort_complex(seq.values))) <= 1e-15

    def test_memory_is_bounded_by_the_block(self):
        # The sweeps hold four complex temporaries of ROW_BLOCK roots x N zeros
        # (gaps, factors, kernels and terms) and a bool one, never an N x N
        # matrix: at N = 1000 an N x N complex array alone is 16 MB.
        n = 1000
        b = BlaschkeProduct(random_deep_sequence(7, n, 1e-3, 0.5))
        bound = 6 * 16 * blaschke.ROW_BLOCK * n
        assert peak_bytes(lambda: frostman_shift_zeros(b, DiskPoint(0.3, 0.1))) <= bound

    @pytest.mark.parametrize(
        "seq",
        [
            pytest.param(frostman_example(20), id="readme-frostman-20"),
            pytest.param(random_deep_sequence(51, 50), id="deep-50"),
            pytest.param(random_deep_sequence(52, 200), id="deep-200"),
        ],
    )
    def test_deep_zeros_against_mpmath(self, seq):
        mpmath = pytest.importorskip("mpmath")
        b = BlaschkeProduct(seq)
        a = 0.3 + 0.1j
        roots = frostman_shift_zeros(b, DiskPoint(a.real, a.imag))
        assert len(roots) == len(seq)
        assert np.all(np.abs(roots.values) < 1.0)
        product = mp_product(b)
        with mpmath.workdps(40):
            worst = max(float(abs(product(complex(w)) - a)) for w in roots.values)
        assert worst <= ROOT_RESIDUAL_TOL

    def test_positive_real_roots_sort_first(self):
        # Two roots are real, with rounding-level Im w of opposite signs; a
        # negative one must not wrap the argument to 2 pi and sort last, and
        # neither sign may decide their order: the smaller modulus comes first.
        b = BlaschkeProduct(radial_sequence(0.5, 8))
        roots = frostman_shift_zeros(b, DiskPoint(0.1, 0.0)).values
        real = np.abs(roots.imag) <= 1e-12
        assert real.tolist() == [True, True] + [False] * 6
        assert abs(roots[0] - 0.2736708183825187) <= 1e-12
        assert abs(roots[1] - 0.9979) <= 1e-4

    def test_ill_conditioned_roots_fail_verification(self):
        # |B'| grows like 1/(1 - |z|): 10 of these 40 roots miss the 1e-8 residual gate.
        b = BlaschkeProduct(frostman_example(40))
        with pytest.raises(RootVerificationFailed, match="10 of 40"):
            frostman_shift_zeros(b, DiskPoint(0.3, 0.1))


def radial_sequence_like(n):
    """n points evenly spaced on the circle of radius 1/2, pairwise separated."""
    angles = 2.0 * np.pi * np.arange(n) / n
    return ZeroSequence(0.5 * np.exp(1j * angles))
