"""Ten end-to-end checks covering the whole toolkit at desk scale.

Each test prints exactly one pass/fail line; the lines are replayed in
the terminal summary so a plain pytest run shows the verdict per check.
Tolerances here are the binding ones for the package.
"""

from contextlib import contextmanager

import numpy as np

from blaschke_lab import (
    BlaschkeProduct,
    CircleGrid,
    DiskPoint,
    TargetVector,
    ZeroSequence,
    cross_modulus,
    frostman_example,
    frostman_shift_zeros,
    frostman_sum,
    interpolate_union,
    lebesgue_constant,
    nearby_iterate,
    pairwise_rho,
    perturb_sample,
    perturbation_report,
    pseudo_disk_to_euclidean,
    radial_sequence,
    solve_kb,
)
from blaschke_lab import cli
from tests.conftest import (
    kernel_solve_oracle,
    kw_interpolant,
    random_delta_sequence,
    random_separated,
    record_acceptance,
    split_separated,
)

GRID_LIGHT = CircleGrid(base_count=256, refinement_rounds=1)
GRID_FLAT = CircleGrid(base_count=256, refinement_rounds=0)
GRID_FULL = CircleGrid()

CIRCLE_256 = np.exp(2j * np.pi * np.arange(256) / 256)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        record_acceptance(f"acceptance {num:02d} {label}: FAIL")
        raise
    record_acceptance(f"acceptance {num:02d} {label}: PASS")


def _random_targets(rng, n: int) -> TargetVector:
    return TargetVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def test_01_carleson_product_identity():
    """(1-|a_j|^2)|B'(a_j)| equals the pairwise distance product, 100 sequences."""
    with criterion(1, "carleson product identity"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 41))
            seq = random_separated(int(rng.integers(0, 2**31)), n, min_rho=0.1)
            report = BlaschkeProduct(seq).carleson()
            dist = pairwise_rho(seq.values, seq.values)
            np.fill_diagonal(dist, 1.0)
            products = dist.prod(axis=1)
            values = np.array([q for _, q in report.per_zero])
            assert float(np.max(np.abs(values - products) / products)) <= 1e-9


def test_02_interpolation_and_kernel_agreement():
    """Node reproduction, agreement with a kernel solve and with exact k_w^B, 50 instances."""
    with criterion(2, "interpolation and kernel-form agreement"):
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            seq = random_delta_sequence(int(rng.integers(0, 2**31)), n, delta_min=0.3)
            b = BlaschkeProduct(seq)
            alpha = _random_targets(rng, n)
            rep = solve_kb(b, alpha)
            node_err = float(np.max(np.abs(rep(seq.values) - alpha.values)))
            assert node_err <= 1e-8 * (1.0 + alpha.sup_norm)
            oracle = kernel_solve_oracle(seq.values, alpha.values)
            assert float(np.max(np.abs(rep(CIRCLE_256) - oracle(CIRCLE_256)))) <= 1e-6
            for w in (0.0, 0.5, 0.9j, -0.99):
                targets, exact = kw_interpolant(b, w)
                expected = exact(CIRCLE_256)
                err = float(np.max(np.abs(solve_kb(b, targets)(CIRCLE_256) - expected)))
                assert err <= 1e-10 * float(np.max(np.abs(expected)))


def test_03_union_interpolation():
    """Two-set interpolation with structural vanishing and a merged oracle, 30 instances."""
    with criterion(3, "union interpolation against the merged oracle"):
        rng = np.random.default_rng(303)
        for _ in range(30):
            total = int(rng.integers(2, 16))
            n_a = int(rng.integers(1, total))
            seq_a, seq_z = split_separated(
                int(rng.integers(0, 2**31)), n_a, total - n_a, min_rho=0.45
            )
            alpha = _random_targets(rng, len(seq_a))
            beta = _random_targets(rng, len(seq_z))
            b = BlaschkeProduct(seq_a)
            c = BlaschkeProduct(seq_z)
            union = interpolate_union(b, c, alpha, beta)

            gamma_norm = max(alpha.sup_norm, beta.sup_norm)
            tol_nodes = 1e-7 * (1.0 + gamma_norm)
            assert float(np.max(np.abs(union(seq_a.values) - alpha.values))) <= tol_nodes
            assert float(np.max(np.abs(union(seq_z.values) - beta.values))) <= tol_nodes
            assert float(np.max(np.abs(union.G2(seq_a.values)))) <= 1e-10
            assert float(np.max(np.abs(union.G1(seq_z.values)))) <= 1e-10

            merged = ZeroSequence(seq_a.points + seq_z.points)
            targets = TargetVector(
                np.concatenate([alpha.values, beta.values])
            )
            oracle = solve_kb(BlaschkeProduct(merged), targets)
            diff = float(np.max(np.abs(union(CIRCLE_256) - oracle(CIRCLE_256))))
            assert diff <= 1e-6


def test_04_nearby_iteration_contraction():
    """Perturbed-node iteration stays under the geometric bound, 20 seeded trials."""
    with criterion(4, "nearby-node iteration under the contraction bound"):
        rng = np.random.default_rng(404)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            seq = random_separated(int(rng.integers(0, 2**31)), n, min_rho=0.3)
            b = BlaschkeProduct(seq)
            m_const = lebesgue_constant(b, GRID_LIGHT)
            radius = 0.8 / (2.0 * m_const)
            min_sep = min(0.1, 0.5 * seq.min_separation)
            paired = perturb_sample(seq, radius, 9000 + trial, min_sep=min_sep)
            assert paired.nearness <= radius + 1e-12

            alpha = _random_targets(rng, n)
            rep, trace = nearby_iterate(
                b, paired.Z, alpha, max_iter=30, tol=1e-8, grid=GRID_LIGHT
            )
            assert len(trace.residual_sup) <= 30
            assert trace.residual_sup[-1] <= 1e-8
            for got, bound in zip(trace.residual_sup, trace.bound_curve):
                assert got <= bound * 1.1 + 1e-15


def test_05_frostman_sums():
    """Radial sum hits its closed value at the boundary spike; the bounded example stabilizes."""
    with criterion(5, "frostman sums: radial spike and bounded example"):
        radial = radial_sequence(0.5, 30, 0.0)
        report = frostman_sum(radial, GRID_FULL)
        assert abs(report.value - 30.0) <= 1e-9
        arg = float(report.argmax_or_argmin.arg) % (2.0 * np.pi)
        assert min(arg, 2.0 * np.pi - arg) <= 1e-6

        s20 = frostman_sum(frostman_example(20), GRID_FULL).value
        s40 = frostman_sum(frostman_example(40), GRID_FULL).value
        assert abs(s40 - s20) <= 0.05 * s20


def test_06_perturbation_inequalities():
    """1000 seeded perturbations: size comparisons, boundary kernel infima and the distance-gap estimate all hold."""
    with criterion(6, "perturbation inequality envelopes over 1000 trials"):
        seq = frostman_example(20)
        upper = np.triu_indices(len(seq), k=1)
        gap_a = 1.0 - pairwise_rho(seq.values, seq.values)[upper]
        master = np.random.default_rng(606)
        for r, min_sep, trials in ((0.3, 0.02, 333), (0.5, 0.01, 333), (0.7, 0.005, 334)):
            c_r = (1.0 + r) / (1.0 - r)
            for _ in range(trials):
                seed = int(master.integers(0, 2**63 - 1))
                paired = perturb_sample(seq, r, seed, min_sep=min_sep)
                report = perturbation_report(paired, r, GRID_FLAT)
                assert report.violations == 0
                assert report.empirical_D1 >= 1.0 / c_r - 1e-12
                assert report.empirical_D2 <= c_r + 1e-12
                assert report.empirical_C3 >= 1.0 / c_r - 1e-12
                assert report.empirical_C4 >= 1.0 / c_r - 1e-12
                gap_z = 1.0 - pairwise_rho(paired.Z.values, paired.Z.values)[upper]
                assert np.all(gap_a <= c_r**2 * gap_z + 1e-12)


def test_07_pseudo_disk_boundary():
    """Boundary of the converted disk keeps constant pseudohyperbolic radius, 100 disks."""
    with criterion(7, "pseudo-disk boundary radius"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            while True:
                c = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
                if abs(c) <= 0.95:
                    break
            r = float(rng.uniform(0.05, 0.95))
            disk = pseudo_disk_to_euclidean(c, r)
            boundary = disk.boundary_points(64)
            dist = pairwise_rho(np.array([c]), boundary)[0]
            assert float(np.max(np.abs(dist - r))) <= 1e-10


def test_08_shifted_zero_residuals():
    """Shifted products return degree-many verified roots inside the disk, 20 cases."""
    with criterion(8, "shifted-product root count and residuals"):
        rng = np.random.default_rng(808)
        for _ in range(20):
            n = int(rng.integers(1, 21))
            seq = random_separated(int(rng.integers(0, 2**31)), n, min_rho=0.15, rmax=0.85)
            b = BlaschkeProduct(seq)
            while True:
                a = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
                if abs(a) <= 0.7:
                    break
            roots = frostman_shift_zeros(b, DiskPoint(a.real, a.imag))
            assert len(roots) == n
            assert float(np.max(np.abs(roots.values))) < 1.0
            residuals = np.abs(b.evaluate(roots.values) - a)
            assert float(residuals.max()) <= 1e-8


def test_09_cross_modulus_floor():
    """Smallest cross modulus beats the separation power; moduli factor pointwise."""
    with criterion(9, "cross-modulus floor and pointwise factorization"):
        rng = np.random.default_rng(909)
        for _ in range(30):
            total = int(rng.integers(2, 16))
            n_a = int(rng.integers(1, total))
            seq_a, seq_z = split_separated(
                int(rng.integers(0, 2**31)), n_a, total - n_a, min_rho=0.45
            )
            b = BlaschkeProduct(seq_a)
            report = cross_modulus(b, seq_z)
            assert report.value >= 0.4 ** len(seq_a)
            assert report.value > 0.0

            samples = rng.uniform(-0.9, 0.9, size=(40, 2))
            points = samples[:, 0] + 1j * samples[:, 1]
            points = points[np.abs(points) < 0.95]
            factored = pairwise_rho(points, seq_a.values).prod(axis=1)
            assert float(
                np.max(np.abs(np.abs(b.evaluate(points)) - factored))
            ) <= 1e-12


def test_10_cli_determinism(tmp_path):
    """Identical config and seed produce byte-identical output files."""
    with criterion(10, "cli byte-level determinism"):
        argv_sets = [
            [
                "check",
                "--generator",
                "frostman_example",
                "--n",
                "10",
                "--grid-size",
                "512",
            ],
            [
                "perturb",
                "--generator",
                "frostman_example",
                "--n",
                "8",
                "--radius",
                "0.05",
                "--trials",
                "5",
                "--seed",
                "17",
                "--grid-size",
                "256",
            ],
        ]
        for idx, argv in enumerate(argv_sets):
            out_a = tmp_path / f"run{idx}_a.json"
            out_b = tmp_path / f"run{idx}_b.json"
            assert cli.main(argv + ["--out", str(out_a)]) == 0
            assert cli.main(argv + ["--out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes()
