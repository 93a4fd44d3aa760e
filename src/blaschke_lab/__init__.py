"""Numerical toolkit for finite Blaschke products and model-space interpolation.

The package covers pseudohyperbolic geometry on the unit disk, stable
evaluation of finite Blaschke products, thin-sequence diagnostics,
closed-form and iterative interpolation on model-space node sets, and a
command-line front end for reproducible experiments.

Each public name is listed once below, under the submodule that defines
it, and that submodule is imported on first access to the name, so a
command loads only the modules it runs.  A submodule is imported on first
access too: after ``import blaschke_lab``, ``blaschke_lab.geometry`` works.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "blaschke": ("BlaschkeProduct", "CarlesonReport", "TargetVector", "ZeroSequence", "as_targets"),
    "criteria": (
        "CircleGrid",
        "CriterionReport",
        "PerturbationReport",
        "cohn_sum",
        "cross_modulus",
        "dyakonov_sup",
        "frostman_sum",
        "nearness",
        "perturbation_report",
        "perturbation_reports",
        "scan_circle",
        "separation",
        "vasyunin_sum",
    ),
    "errors": (
        "BlaschkeLabError",
        "ConfigInvalid",
        "ContractionViolated",
        "DuplicatePoint",
        "IndexOutOfRange",
        "IoFailure",
        "MaxIterExceeded",
        "NearnessExceeded",
        "PointOutsideDisk",
        "PrecisionViolation",
        "RootVerificationFailed",
        "SamplingExhausted",
        "SeparationTooSmall",
        "TruncationTooDeep",
        "ZeroCollision",
    ),
    "geometry": (
        "BOUNDARY_MARGIN",
        "CirclePoint",
        "DiskPoint",
        "EuclideanDisk",
        "KernelBoundsReport",
        "beta",
        "kernel_bounds_check",
        "mobius",
        "one_minus_abs_sq",
        "pairwise_rho",
        "pseudo_disk_to_euclidean",
        "rho",
    ),
    "interpolation": (
        "InterpolantRep",
        "IterationTrace",
        "UnionConstruction",
        "frostman_shift_zeros",
        "interpolate_union",
        "lebesgue_constant",
        "nearby_iterate",
        "solve_kb",
        "sup_norm",
    ),
    "sequences": (
        "DEPTH_CAP",
        "PairedSequences",
        "deinterlace",
        "deinterlace_targets",
        "frostman_example",
        "interlace",
        "interlace_targets",
        "perturb_sample",
        "radial_sequence",
    ),
}

_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
