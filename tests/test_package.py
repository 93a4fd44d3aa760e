"""The package's public names: each resolves, lazily, to its submodule's object."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import blaschke_lab

PUBLIC = {
    "blaschke": ["BlaschkeProduct", "CarlesonReport", "TargetVector", "ZeroSequence", "as_targets"],
    "criteria": [
        "CircleGrid", "CriterionReport", "PerturbationReport", "cohn_sum", "cross_modulus", "dyakonov_sup",
        "frostman_sum", "nearness", "perturbation_report", "perturbation_reports", "scan_circle", "separation",
        "vasyunin_sum",
    ],
    "errors": [
        "BlaschkeLabError", "ConfigInvalid", "ContractionViolated", "DuplicatePoint", "IndexOutOfRange",
        "IoFailure", "MaxIterExceeded", "NearnessExceeded", "PointOutsideDisk", "PrecisionViolation",
        "RootVerificationFailed", "SamplingExhausted", "SeparationTooSmall", "TruncationTooDeep",
        "ZeroCollision",
    ],
    "geometry": [
        "BOUNDARY_MARGIN", "CirclePoint", "DiskPoint", "EuclideanDisk", "KernelBoundsReport", "beta",
        "kernel_bounds_check", "mobius", "one_minus_abs_sq", "pairwise_rho", "pseudo_disk_to_euclidean", "rho",
    ],
    "interpolation": [
        "InterpolantRep", "IterationTrace", "UnionConstruction", "frostman_shift_zeros", "interpolate_union",
        "lebesgue_constant", "nearby_iterate", "solve_kb", "sup_norm",
    ],
    "sequences": [
        "DEPTH_CAP", "PairedSequences", "deinterlace", "deinterlace_targets", "frostman_example", "interlace",
        "interlace_targets", "perturb_sample", "radial_sequence",
    ],
}


def test_public_names():
    names = [name for module_names in PUBLIC.values() for name in module_names]
    assert len(blaschke_lab.__all__) == 64
    assert set(blaschke_lab.__all__) == {"__version__", *names}
    for module, module_names in PUBLIC.items():
        submodule = importlib.import_module(f"blaschke_lab.{module}")
        # a submodule's own list of public names is its table entry, nothing more or less
        assert sorted(submodule.__all__) == module_names
        for name in module_names:
            assert getattr(blaschke_lab, name) is getattr(submodule, name)
    star = {}
    exec("from blaschke_lab import *", star)
    assert set(blaschke_lab.__all__) <= set(star)
    assert set(blaschke_lab.__all__) <= set(dir(blaschke_lab))
    with pytest.raises(AttributeError, match="no_such_name"):
        blaschke_lab.no_such_name
    # a fresh import loads no submodule until a name or a submodule is asked for
    src = os.path.dirname(os.path.dirname(os.path.abspath(blaschke_lab.__file__)))
    code = (
        "import sys, blaschke_lab; "
        "assert not [m for m in sys.modules if m.startswith('blaschke_lab.')]; "
        "assert blaschke_lab.geometry.rho is blaschke_lab.rho"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


# The naive spellings of the kernel 1 - conj(a) z and of the sizes 1 - |a|^2
# and 1 - |a|, which lose their accuracy near the circle.  Each of these is
# formed once, exactly, by geometry's helpers (_kernel, one_minus_abs_sq and
# _depth), which spell none of them.
NAIVE_SPELLINGS = {
    "kernel": re.compile(r"1\.0 - np\.conj|\.conjugate\(\) \*|np\.subtract\(1\.0, "),
    "depth": re.compile(r"1\.0 - np\.abs\("),
    "size": re.compile(r"\(1\.0 - (m\w*)\) \* \(1\.0 \+ \1\)"),
}


def test_no_module_spells_the_kernel_or_the_sizes():
    package = pathlib.Path(blaschke_lab.__file__).parent
    found = [
        f"{path.name}:{number}: naive {quantity}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for quantity, pattern in NAIVE_SPELLINGS.items()
        if pattern.search(line)
    ]
    assert not found, "\n".join(found)


def test_no_module_uses_numpy_random():
    # Loading numpy.random also loads secrets and OpenSSL's libcrypto, about
    # 6.2 MiB of RSS; the draws come from the standard library's random.Random.
    package = pathlib.Path(blaschke_lab.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(np|numpy)\.random\b", line)
    ]
    assert not found, "\n".join(found)
