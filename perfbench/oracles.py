"""Checks of CLI reports against mathematics computed here, not by the program.

Each check takes the report as parsed JSON plus the zeros the benchmark
generated, and returns a list of human-readable failures (empty when the
report passes).  Tolerances come from floating-point error bounds or from
the package's documented thresholds, never from observed output.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)

# The package trusts an interpolant once its kernel-form residual is
# below this share of the target size (interpolation.KERNEL_RESIDUAL_TOL);
# it is the accuracy the package claims for K_B interpolants.
KERNEL_RESIDUAL_TOL = 1e-6

# Slack the package allows when it counts perturbation violations
# (criteria.perturbation_report).
VIOLATION_SLACK = 1e-12

# The CLI's default circle grid (--grid-size), which the benchmark uses.
GRID_BASE_COUNT = 4096

BOUNDARY_SAMPLES = 256


def one_minus_abs_sq(z: np.ndarray) -> np.ndarray:
    mod = np.abs(z)
    return (1.0 - mod) * (1.0 + mod)


def rounding_tol(zeros: np.ndarray) -> float:
    """Relative error bound for a sum or product of N terms built from 1 - conj(a) b.

    Each term loses at most a few ulps relative to 1 - |a|^2, the smallest
    value |1 - conj(a) b| can take on the disk; N of them add up.
    """
    return 16.0 * len(zeros) * EPS / float(np.min(one_minus_abs_sq(zeros)))


def _rho(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(b[None, :] - a[:, None]) / np.abs(1.0 - np.conj(a)[:, None] * b[None, :])


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def check_criteria(report: dict, zeros: np.ndarray, schedule: tuple[int, ...]) -> list[str]:
    """`check` report: Carleson product identity, Cohn, Vasyunin and Frostman."""
    failures = []
    per_n = report["results"]["per_N"]
    if [entry["N"] for entry in per_n] != list(schedule):
        return [f"schedule {[e['N'] for e in per_n]} is not {list(schedule)}"]
    for entry in per_n:
        n = entry["N"]
        zs = zeros[:n]
        tol = rounding_tol(zs)
        tag = f"N={n}"

        # (1 - |a_j|^2) |B'(a_j)| = prod_{k != j} rho(a_j, a_k).
        dist = _rho(zs, zs)
        np.fill_diagonal(dist, 1.0)
        identity = np.exp(np.sum(np.log(dist), axis=1))
        carleson = entry["carleson"]
        quantities = np.array([q for _, q in carleson["per_zero"]])
        if [i for i, _ in carleson["per_zero"]] != list(range(n)):
            failures.append(f"{tag}: carleson per_zero indices are not 0..{n - 1}")
        else:
            rel = np.abs(quantities - identity) / identity
            worst = int(np.argmax(rel))
            if rel[worst] > tol:
                failures.append(
                    f"{tag}: carleson zero {worst} is {float(quantities[worst])!r}, the product "
                    f"identity gives {float(identity[worst])!r} (relative error {rel[worst]:.2e} > {tol:.2e})"
                )
            if carleson["delta"] != float(np.min(quantities)):
                failures.append(f"{tag}: carleson delta is not the minimum per-zero quantity")

        weights = 1.0 - np.abs(zs)
        cohn_rows = np.sum(weights[None, :] / np.abs(1.0 - np.conj(zs)[None, :] * zs[:, None]), axis=1)
        cohn = entry["cohn"]
        if not np.allclose(cohn["per_index"], cohn_rows, rtol=tol, atol=0.0):
            failures.append(f"{tag}: cohn per-index sums differ from the direct sums")
        if not _close(cohn["value"], float(np.max(cohn_rows)), tol):
            failures.append(f"{tag}: cohn value {cohn['value']!r}, direct maximum {float(np.max(cohn_rows))!r}")

        vasyunin = float(-np.sum(weights * np.log(weights)))
        if not _close(entry["vasyunin"], vasyunin, tol):
            failures.append(f"{tag}: vasyunin {entry['vasyunin']!r}, direct sum {vasyunin!r}")

        failures += _check_frostman(entry["frostman"], zs, weights, tol, tag)
    return failures


def _check_frostman(frostman: dict, zs: np.ndarray, weights: np.ndarray, tol: float, tag: str) -> list[str]:
    """The sup is the sum at its witness and at least the bare-grid maximum."""
    failures = []
    witness = np.exp(1j * frostman["argmax_or_argmin"]["arg"])
    at_witness = float(np.sum(weights / np.abs(witness - zs)))
    if not _close(frostman["value"], at_witness, tol):
        failures.append(f"{tag}: frostman value {frostman['value']!r}, sum at its witness {at_witness!r}")
    angles = np.concatenate(
        [2.0 * math.pi * np.arange(GRID_BASE_COUNT) / GRID_BASE_COUNT, np.angle(zs) % (2.0 * math.pi)]
    )
    grid = np.exp(1j * angles)
    grid_max = float(np.max(np.sum(weights[None, :] / np.abs(grid[:, None] - zs[None, :]), axis=1)))
    if frostman["value"] < grid_max * (1.0 - tol):
        failures.append(f"{tag}: frostman value {frostman['value']!r} is below the grid maximum {grid_max!r}")
    return failures


def check_perturb(report: dict, centers: np.ndarray, radius: float, trials: int) -> list[str]:
    """`perturb` report: no violations and size ratios within [1/C_r, C_r].

    For z in the pseudohyperbolic disk of radius r around a,
    (1 - |z|^2) / (1 - |a|^2) lies in [(1-r)/(1+r), (1+r)/(1-r)].
    """
    failures = []
    agg = report["results"]["aggregate"]
    c_r = (1.0 + radius) / (1.0 - radius)
    slack = VIOLATION_SLACK / float(np.min(one_minus_abs_sq(centers)))
    if agg["trials"] != trials or len(report["results"]["trial_reports"]) != trials:
        failures.append(f"expected {trials} trials, report has {agg['trials']}")
    if not _close(agg["C_r"], c_r, 4.0 * EPS):
        failures.append(f"C_r is {agg['C_r']!r}, (1+r)/(1-r) is {c_r!r}")
    if agg["total_violations"] != 0:
        failures.append(f"total_violations is {agg['total_violations']}, the inequality admits none")
    if agg["min_D1"] < 1.0 / c_r - slack:
        failures.append(f"min_D1 {agg['min_D1']!r} is below 1/C_r = {1.0 / c_r!r}")
    if agg["max_D2"] > c_r + slack:
        failures.append(f"max_D2 {agg['max_D2']!r} is above C_r = {c_r!r}")
    trial_reports = report["results"]["trial_reports"]
    if agg["min_D1"] != min(t["empirical_D1"] for t in trial_reports) or agg["max_D2"] != max(
        t["empirical_D2"] for t in trial_reports
    ):
        failures.append("aggregate D1/D2 envelopes do not match the trial reports")
    return failures


def check_interpolate(report: dict, zeros: np.ndarray, fill: complex) -> list[str]:
    """`interpolate --fill c` report against the exact interpolant c (1 - conj(B(0)) B(z)).

    That function lies in K_B (it is c times the reproducing kernel at 0)
    and equals c at every zero, so it is the interpolant.  On the circle
    |B| = 1, hence its sup is |c| (1 + |B(0)|) with |B(0)| = prod |a_j|.
    """
    failures = []
    results = report["results"]
    size = abs(fill)
    tol = KERNEL_RESIDUAL_TOL * size
    b0 = float(np.prod(np.abs(zeros)))
    exact_sup = size * (1.0 + b0)
    if results["degree"] != len(zeros):
        failures.append(f"degree {results['degree']} is not {len(zeros)}")
    if abs(results["sup_norm"] - exact_sup) > tol:
        failures.append(
            f"sup_norm {results['sup_norm']!r}, exact |c|(1+|B(0)|) = {exact_sup!r} "
            f"(ill_conditioned={results['ill_conditioned']})"
        )

    series = report["series"]["boundary_modulus"]
    angles = 2.0 * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    zeta = np.exp(1j * angles)
    # conj(B(0)) B(zeta) with the package's normalization cancelled out:
    # conj(b_j(0)) b_j(zeta) = conj(-a_j) (zeta - a_j) / (1 - conj(a_j) zeta).
    factors = np.conj(-zeros)[None, :] * (zeta[:, None] - zeros[None, :]) / (
        1.0 - np.conj(zeros)[None, :] * zeta[:, None]
    )
    exact_modulus = size * np.abs(1.0 - np.prod(factors, axis=1))
    if len(series["y"]) != BOUNDARY_SAMPLES or not np.allclose(series["x"], angles, rtol=0.0, atol=4.0 * EPS * math.pi):
        failures.append("boundary_modulus is not sampled at 2 pi k / 256")
    else:
        err = np.abs(np.array(series["y"]) - exact_modulus)
        worst = int(np.argmax(err))
        if err[worst] > tol:
            failures.append(
                f"boundary_modulus at arg {angles[worst]:.6f} is {series['y'][worst]!r}, "
                f"exact {float(exact_modulus[worst])!r}"
            )
    return failures
