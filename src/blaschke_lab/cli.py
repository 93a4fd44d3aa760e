"""Command-line front end: file I/O, experiment orchestration, report emission.

Every number in an emitted report originates in a call into the core
modules; this layer only assembles configurations, dispatches, and
serializes.  Output is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import criteria as crit
from .blaschke import BlaschkeProduct, TargetVector, ZeroSequence
from .criteria import CircleGrid
from .errors import BlaschkeLabError, ConfigInvalid, IoFailure
from .geometry import CirclePoint, DiskPoint, disk_values
from .sequences import _perturb_samples, frostman_example, perturb_sample, radial_sequence

# interpolation is imported inside the pipelines that call it, so that check
# and perturb, each a fresh process, do not spend start-up time loading it;
# csv likewise inside _csv_text, so that only --format csv loads it.

__all__ = [
    "ExperimentConfig",
    "ReportBundle",
    "Table",
    "Series",
    "load_sequence_file",
    "write_sequence_file",
    "validate_config",
    "run",
    "emit",
    "main",
]

BOUNDARY_SAMPLES = 256


# ---------------------------------------------------------------------------
# sequence files


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"{what} {path} is not valid JSON: {exc}") from exc


def _sequence_text(seq: ZeroSequence, meta: dict) -> str:
    payload = {"points": [{"re": w.real, "im": w.imag} for w in seq.values.tolist()], "meta": meta}
    return json.dumps(payload, indent=2) + "\n"


def write_sequence_file(path, seq: ZeroSequence, meta: Optional[dict] = None) -> None:
    _write_text(Path(path), _sequence_text(seq, dict(meta or {"name": "sequence"})))


def load_sequence_file(path) -> tuple[ZeroSequence, dict]:
    raw = _read_json(path, "sequence file")
    _require_keys(raw, {"points"}, {"meta"}, context=str(path))
    points = []
    try:
        for i, entry in enumerate(_list(raw["points"], f"{path} points")):
            point = _check_section(_RE_IM, entry, f"{path} point {i}")
            points.append(complex(point["re"], point["im"]))
    finally:  # a point outside the disk is reported before any later fault of the file
        values = disk_values(points)
    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigInvalid(f"{path} meta: expected a mapping, got {type(meta).__name__}")
    return ZeroSequence(values), dict(meta)


# ---------------------------------------------------------------------------
# experiment configuration
#
# Each config key is a Field; the experiment tables after the pipelines list
# them, each kind with only the keys it reads, and validate_config,
# build_parser and _raw_from_args walk them.


_REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One config key and the CLI flags that set it.

    check(value, context) normalizes a value or raises ConfigInvalid; a
    field without one is a section whose keys are its sub-fields, while a
    checked field's sub-fields only add flags for its to_raw to read.  A
    default of _REQUIRED makes the key mandatory, None leaves it out when
    absent, and any other default is checked like a given value.  Flags
    are text and default to None, so an omitted flag takes the field's
    default.  The first flag given sets the value, through the matching
    to_raw(text, args) if any.
    """

    key: str
    check: Optional[Callable[[Any, str], Any]] = None
    default: Any = _REQUIRED
    flags: tuple[str, ...] = ()
    help: Optional[str] = None
    to_raw: tuple[Callable[[str, argparse.Namespace], Any], ...] = ()
    fields: tuple["Field", ...] = ()


def _require_keys(mapping, required: set, optional: set, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigInvalid(f"{context}: expected a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - required - optional
    if unknown:
        raise ConfigInvalid(f"{context}: unknown keys {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise ConfigInvalid(f"{context}: missing keys {sorted(missing)}")


def _check_section(fields: tuple[Field, ...], value, context: str) -> dict:
    keys = {f.key for f in fields}
    _require_keys(value, {f.key for f in fields if f.default is _REQUIRED}, keys, context)
    out = {}
    for f in fields:
        if f.key in value or f.default is not None:
            item, where = value.get(f.key, f.default), f"{context}.{f.key}"
            out[f.key] = f.check(item, where) if f.check else _check_section(f.fields, item, where)
    return out


def _add_flags(parser: argparse.ArgumentParser, fields: tuple[Field, ...]) -> None:
    for f in fields:
        for flag in f.flags:
            required = f.default is _REQUIRED and len(f.flags) == 1
            parser.add_argument(flag, required=required, help=f.help)
        _add_flags(parser, f.fields)


def _raw_from_args(fields: tuple[Field, ...], args) -> dict:
    """The raw config that the given flags describe."""
    raw = {}
    for f in fields:
        value = None if f.flags or f.check else _raw_from_args(f.fields, args)
        for i, flag in enumerate(f.flags):
            text = getattr(args, flag.lstrip("-").replace("-", "_"))
            if text is not None:
                value = f.to_raw[i](text, args) if f.to_raw else text
                break
        if value is None and f.default is _REQUIRED:
            raise ConfigInvalid(f"provide {' or '.join(f.flags)}")
        if value is not None:
            raw[f.key] = value
    return raw


_LEAST = {None: "", 0: "a non-negative ", 1: "a positive "}


def _number(cast, least: Optional[int] = None) -> Callable[[Any, str], Any]:
    """A check for ints or floats: numeric strings pass; bools, non-finite values and values below least do not.

    least is None (any value), 0 or 1.
    """

    def check(value, context: str):
        try:
            number = cast(value)
            # int(2.5) would truncate silently
            ok = not isinstance(value, bool) and math.isfinite(number)
            ok = ok and not (isinstance(value, float) and number != value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok or least is not None and number < least:
            raise ConfigInvalid(f"{context}: expected {_LEAST[least]}{cast.__name__}, got {value!r}")
        return number

    return check


_INT = _number(int)
_FLOAT = _number(float)
_POSITIVE_INT = _number(int, least=1)
_NON_NEGATIVE_FLOAT = _number(float, least=0)
_RE_IM = (Field("re", _FLOAT), Field("im", _FLOAT))


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ConfigInvalid(f"{context}: expected a list, got {type(value).__name__}")
    return value


def _pair(value, context: str) -> list[float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigInvalid(f"{context}: expected [re, im], got {value!r}")
    return [_FLOAT(v, context) for v in value]


def _targets(value, context: str) -> dict:
    """{"values": [[re, im], ...]} or {"fill": [re, im]}."""
    if isinstance(value, dict) and "values" in value:
        _require_keys(value, {"values"}, set(), context)
        values = _list(value["values"], f"{context}.values")
        return {"values": [_pair(v, f"{context}.values[{i}]") for i, v in enumerate(values)]}
    _require_keys(value, {"fill"}, set(), context)
    return {"fill": _pair(value["fill"], f"{context}.fill")}


def _sequence(value, context: str) -> dict:
    """{"path": file} or {"generator": name, "params": {...}}."""
    if isinstance(value, dict) and "path" in value:
        _require_keys(value, {"path"}, set(), context)
        if not isinstance(value["path"], str):
            raise ConfigInvalid(f"{context}.path: expected a string, got {value['path']!r}")
        return {"path": value["path"]}
    _require_keys(value, {"generator", "params"}, set(), context)
    name = value["generator"]
    if not isinstance(name, str) or name not in _GENERATORS:
        raise ConfigInvalid(
            f"{context}: unknown generator {name!r}; expected one of {sorted(_GENERATORS)}"
        )
    params = _check_section(_GENERATORS[name][1], value["params"], f"{context}.params")
    return {"generator": name, "params": params}


def _schedule(value, context: str) -> tuple[int, ...]:
    return tuple(_POSITIVE_INT(n, f"{context}[{i}]") for i, n in enumerate(_list(value, context)))


def _values_file(path: str, args) -> dict:
    raw = _read_json(path, "target file")
    _require_keys(raw, {"values"}, set(), context=path)
    return raw


def _generator_spec(name: str, args) -> dict:
    params = _GENERATORS[name][1] if name in _GENERATORS else ()
    return {"generator": name, "params": _raw_from_args(params, args)}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration; a key its kind does not read is None.

    grid is None for union, seed for all but nearby and perturb,
    N_schedule for all but criteria, and tolerances for all but nearby.
    """

    kind: str
    inputs: dict
    grid: Optional[dict] = None
    seed: Optional[int] = None
    N_schedule: Optional[tuple[int, ...]] = None
    tolerances: Optional[dict] = None

    def as_dict(self) -> dict:
        """The echo of a report, a valid raw config: the keys the kind reads, in field order."""
        echo = {key: value for key, value in asdict(self).items() if value is not None}
        if self.N_schedule is not None:
            echo["N_schedule"] = list(self.N_schedule)
        return echo

    def circle_grid(self) -> CircleGrid:
        return CircleGrid(**self.grid)


def validate_config(raw: dict) -> ExperimentConfig:
    """Normalize a raw configuration mapping, rejecting unknown keys.

    Defaults are filled deterministically; the resolved form is echoed
    into every report bundle.
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config: expected a mapping, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigInvalid(f"config: unknown kind {kind!r}; expected one of {list(KINDS)}")
    rest = {key: value for key, value in raw.items() if key != "kind"}
    config = ExperimentConfig(kind=kind, **_check_section(_config_fields(kind), rest, "config"))
    if config.grid is not None:
        try:
            config.circle_grid()
        except ValueError as exc:
            raise ConfigInvalid(f"config grid: {exc}") from exc
    return config


# ---------------------------------------------------------------------------
# report bundles


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class Series:
    label: str
    x_label: str
    y_label: str
    x: tuple[float, ...]
    y: tuple[float, ...]


@dataclass
class ReportBundle:
    config: dict
    results: dict
    tables: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "results": self.results,
            # fields in declaration order; json writes their tuples as lists
            "tables": {name: dict(vars(t)) for name, t in self.tables.items()},
            "series": {name: dict(vars(s)) for name, s in self.series.items()},
        }


def _complex_pair(w: complex) -> dict:
    return {"re": w.real, "im": w.imag}


def _witness_json(witness) -> Any:
    return {"arg": witness.arg} if isinstance(witness, CirclePoint) else witness


def _report_json(report: crit.CriterionReport) -> dict:
    return {
        "name": report.name,
        "value": report.value,
        "argmax_or_argmin": _witness_json(report.argmax_or_argmin),
        "per_index": report.per_index,
    }


def _table(**columns) -> Table:
    """The given columns, in order, with one row per entry."""
    return Table(columns=tuple(columns), rows=tuple(zip(*columns.values())))


def _series(label: str, x_label: str, y_label: str, x, y) -> Series:
    """The points (x, y) as plain floats."""
    return Series(label, x_label, y_label, tuple(float(v) for v in x), tuple(float(v) for v in y))


# ---------------------------------------------------------------------------
# input resolution


def _resolve_sequence(spec: dict) -> ZeroSequence:
    if "path" in spec:
        return load_sequence_file(spec["path"])[0]
    # validated params are in the generator's positional order
    return _GENERATORS[spec["generator"]][0](*spec["params"].values())


def _resolve_targets(spec: dict, length: int) -> TargetVector:
    if "fill" in spec:
        value = complex(spec["fill"][0], spec["fill"][1])
        return TargetVector([value] * length)
    values = [complex(re, im) for re, im in spec["values"]]
    if len(values) != length:
        raise ConfigInvalid(
            f"target vector has {len(values)} entries for {length} points"
        )
    return TargetVector(values)


# ---------------------------------------------------------------------------
# pipelines


def _run_criteria(config: ExperimentConfig) -> ReportBundle:
    grid = config.circle_grid()
    spec = config.inputs["sequence"]
    if config.N_schedule and "generator" in spec:
        # the schedule, not params.N, sets how many points are generated, and the echo says so
        spec = {**spec, "params": {**spec["params"], "N": max(config.N_schedule)}}
        config = replace(config, inputs={**config.inputs, "sequence": spec})
    full = _resolve_sequence(spec)
    if not config.N_schedule:
        # an omitted or empty schedule runs the whole sequence
        config = replace(config, N_schedule=(len(full),))
    deepest = max(config.N_schedule)
    if deepest > len(full):
        raise ConfigInvalid(f"schedule entry {deepest} exceeds the {len(full)} stored points")
    per_n = []
    trend = {"N": [], "carleson_delta": [], "frostman_sum": [], "cohn_sum": [], "vasyunin_sum": []}
    for n in config.N_schedule:
        seq = full[:n]
        product = BlaschkeProduct(seq)
        carleson = product.carleson()
        frostman = crit.frostman_sum(seq, grid)
        cohn = crit.cohn_sum(seq)
        vasyunin = crit.vasyunin_sum(seq)
        for column, value in zip(trend.values(), (n, carleson.delta, frostman.value, cohn.value, vasyunin)):
            column.append(value)
        per_n.append(
            {
                "N": n,
                "carleson": {"delta": carleson.delta, "per_zero": carleson.per_zero},
                # the scan injects the n zeros' arguments into the config grid, which has no extras
                "frostman": {**_report_json(frostman), "grid": {**config.grid, "extra_count": n}},
                "cohn": _report_json(cohn),
                "vasyunin": vasyunin,
            }
        )
    tables = {"criteria_trend": _table(**trend)}
    # frostman and cohn still hold the reports of the last schedule entry:
    # their per-index values, then their supremum
    for name, report in (("frostman", frostman), ("cohn", cohn)):
        index = [*map(str, range(len(report.per_index))), "sup"]
        tables[f"{name}_detail"] = _table(index=index, value=[*report.per_index, report.value])
    series = {name: _series(f"{name} vs N", "N", name, trend["N"], trend[name]) for name in list(trend)[1:]}
    return ReportBundle(config=config.as_dict(), results={"per_N": per_n}, tables=tables, series=series)


def _boundary_series(modulus: Callable[[np.ndarray], np.ndarray], label: str) -> Series:
    """A modulus on the circle at BOUNDARY_SAMPLES equispaced arguments, against them."""
    angles = 2.0 * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    return _series(label, "arg", "modulus", angles, modulus(angles))


def _run_interpolate(config: ExperimentConfig) -> ReportBundle:
    from . import interpolation as interp

    grid = config.circle_grid()
    seq = _resolve_sequence(config.inputs["sequence"])
    targets = _resolve_targets(config.inputs["targets"], len(seq))
    product = BlaschkeProduct(seq)
    rep = interp.solve_kb(product, targets)

    # rep equals the targets at the nodes by construction, so no node pass re-measures it
    sup = interp.sup_norm(rep, grid)
    lebesgue = interp.lebesgue_constant(product, grid)
    # N eps Lambda bounds the rounding error of the Cauchy form B(z) sum_j alpha_j w_j / (z - a_j),
    # relative to sup|alpha|.
    rounding = product.degree * float(np.finfo(float).eps) * lebesgue

    results = {
        "degree": product.degree,
        "ill_conditioned": rounding > interp.KB_ACCURACY,
        "sup_norm": sup,
        "lebesgue_constant": lebesgue,
    }
    tables = {"nodes": _table(index=range(len(seq)), target_re=targets.values.real, target_im=targets.values.imag)}
    series = {"boundary_modulus": _boundary_series(rep.circle_modulus, "interpolant modulus on the circle")}
    return ReportBundle(config=config.as_dict(), results=results, tables=tables, series=series)


def _run_union(config: ExperimentConfig) -> ReportBundle:
    from . import interpolation as interp

    seq_a = _resolve_sequence(config.inputs["sequence"])
    seq_z = _resolve_sequence(config.inputs["sequence_b"])
    alpha = _resolve_targets(config.inputs["targets"], len(seq_a))
    beta = _resolve_targets(config.inputs["targets_b"], len(seq_z))
    b = BlaschkeProduct(seq_a)
    c = BlaschkeProduct(seq_z)
    union = interp.interpolate_union(b, c, alpha, beta)

    # G is alpha on A and beta on Z, G1 is 0 on Z and G2 is 0 on A, all by construction,
    # so no node pass re-measures them
    results = {"degrees": [b.degree, c.degree], "tilde_gamma": [_complex_pair(t) for t in union.tilde_gamma]}
    tilde_gamma = np.array(union.tilde_gamma)
    tables = {"tilde_gamma": _table(slot=range(len(tilde_gamma)), re=tilde_gamma.real, im=tilde_gamma.imag)}
    series = {"boundary_modulus": _boundary_series(union.G.circle_modulus, "union interpolant modulus")}
    return ReportBundle(config=config.as_dict(), results=results, tables=tables, series=series)


def _min_sep(config: ExperimentConfig, seq: ZeroSequence) -> float:
    """The configured separation floor of the perturbed points, else min(0.1, half the zeros' own)."""
    min_sep = config.inputs.get("min_sep")
    return min(0.1, 0.5 * seq.min_separation) if min_sep is None else min_sep


def _run_nearby(config: ExperimentConfig) -> ReportBundle:
    from . import interpolation as interp

    grid = config.circle_grid()
    seq = _resolve_sequence(config.inputs["sequence"])
    targets = _resolve_targets(config.inputs["targets"], len(seq))
    product = BlaschkeProduct(seq)

    m_const = interp.lebesgue_constant(product, grid)
    radius = config.inputs["radius_scale"] / (2.0 * m_const)
    paired = perturb_sample(seq, radius, config.seed, min_sep=_min_sep(config, seq))

    rep, trace = interp.nearby_iterate(
        product,
        paired.Z,
        targets,
        max_iter=config.inputs["max_iter"],
        tol=config.tolerances["tol"],
        grid=grid,
    )
    results = {
        "M_used": trace.M_used,
        "epsilon_used": trace.epsilon_used,
        "nearness": paired.nearness,
        "radius": radius,
        "steps": len(trace.residual_sup),
        "contraction_marginal": trace.contraction_marginal,
        "final_residual": trace.residual_sup[-1],
    }
    step = range(len(trace.residual_sup))
    series = {
        "residual_vs_step": _series("residual per correction step", "step", "residual_sup", step, trace.residual_sup),
        "bound_vs_step": _series("geometric bound per step", "step", "bound", step, trace.bound_curve),
    }
    tables = {"steps": _table(step=step, residual_sup=trace.residual_sup, bound_curve=trace.bound_curve)}
    return ReportBundle(config=config.as_dict(), results=results, tables=tables, series=series)


def _run_perturb(config: ExperimentConfig) -> ReportBundle:
    grid = config.circle_grid()
    seq = _resolve_sequence(config.inputs["sequence"])
    radius = config.inputs["radius"]
    trials = config.inputs["trials"]
    min_sep = _min_sep(config, seq)

    master = random.Random(config.seed)
    trial_seeds = [master.getrandbits(63) for _ in range(trials)]
    pairs = _perturb_samples(seq, radius, trial_seeds, min_sep=min_sep)
    # the fields are plain numbers, so a shallow copy equals asdict's deep one
    reports = [dict(vars(report)) for report in crit.perturbation_reports(pairs, radius, grid)]
    column = {key: [r[key] for r in reports] for key in reports[0]}

    envelopes = ((min, "D1"), (max, "D2"), (min, "C1"), (max, "C2"), (min, "C3"), (min, "C4"))
    aggregate = {
        "trials": trials,
        "total_violations": int(sum(column["violations"])),
        **{f"{pick.__name__}_{c}": pick(column[f"empirical_{c}"]) for pick, c in envelopes},
        "C_r": column["C_r"][0],
    }
    trial = range(trials)
    table = _table(
        trial=trial,
        violations=column["violations"],
        nearness=column["nearness"],
        **{c: column[f"empirical_{c}"] for _, c in envelopes},
        frostman_Z=column["frostman_Z"],
    )
    series = {
        "d1_vs_trial": _series("lower size-ratio envelope per trial", "trial", "D1", trial, column["empirical_D1"]),
        "d2_vs_trial": _series("upper size-ratio envelope per trial", "trial", "D2", trial, column["empirical_D2"]),
    }
    results = {"aggregate": aggregate, "trial_reports": reports}
    tables = {"trials": table}
    return ReportBundle(config=config.as_dict(), results=results, tables=tables, series=series)


def _run_shift(config: ExperimentConfig) -> ReportBundle:
    from . import interpolation as interp

    grid = config.circle_grid()
    seq = _resolve_sequence(config.inputs["sequence"])
    point = DiskPoint(config.inputs["point"]["re"], config.inputs["point"]["im"])
    product = BlaschkeProduct(seq)
    roots = interp.frostman_shift_zeros(product, point)

    residuals = np.abs(product.evaluate(roots.values) - point.z)
    frostman_before = crit.frostman_sum(seq, grid)
    frostman_after = crit.frostman_sum(roots, grid)
    results = {
        "degree": product.degree,
        "shift_point": _complex_pair(point.z),
        "max_residual": float(residuals.max()),
        "frostman_original": frostman_before.value,
        "frostman_shifted": frostman_after.value,
    }
    re, im = roots.values.real, roots.values.imag
    tables = {"roots": _table(index=range(len(roots)), re=re, im=im, residual=residuals)}
    # hypot is what abs(complex) computes; np.abs of the array can differ in the last bit
    modulus = np.hypot(re, im)
    series = {"root_modulus": _series("shifted zero moduli", "index", "modulus", range(len(roots)), modulus)}
    return ReportBundle(config=config.as_dict(), results=results, tables=tables, series=series)


# ---------------------------------------------------------------------------
# the experiment tables: per kind, its input fields and the other keys it
# reads, beside the generators; every default, flag and bound is written
# here once

_N = Field("N", _INT, 20, ("--n",), "generator truncation depth")
_Q = Field("q", _FLOAT, 0.5, ("--q",), "radial generator ratio")
_ARG = Field("arg", _FLOAT, 0.0, ("--arg",), "radial generator angle")
_GENERATOR_PARAMS = (_N, _Q, _ARG)

# name -> (function, its params in positional order, default name in gen's metadata)
_GENERATORS = {
    "frostman_example": (frostman_example, (_N,), "frostman_example_{N}"),
    "radial_sequence": (radial_sequence, (_Q, _N, _ARG), "radial_q{q}_{N}"),
}


def _path(text: str, args) -> dict:
    return {"path": text}


_SEQUENCE = Field(
    "sequence", _sequence, _REQUIRED, ("--sequence", "--generator"),
    f"the zeros: a sequence file, or a generator ({', '.join(_GENERATORS)})",
    to_raw=(_path, _generator_spec), fields=_GENERATOR_PARAMS,
)
_TARGETS, _TARGETS_B = (
    Field(key, _targets, {"fill": [1.0, 0.0]}, (f"--targets-file{suffix}", f"--fill{suffix}"),
          "the targets: a json file with a values list, or a constant 're,im'",
          to_raw=(_values_file, lambda text, args: {"fill": text.split(",")}))
    for key, suffix in (("targets", ""), ("targets_b", "-b"))
)
_MIN_SEP = Field("min_sep", _NON_NEGATIVE_FLOAT, None, ("--min-sep",),
                 "separation floor of the perturbed points")

_GRID = Field("grid", None, {}, fields=(
    Field("base_count", _INT, 4096, ("--grid-size",), "circle grid base count"),
    Field("refinement_rounds", _INT, 3),
))
_SEED = Field("seed", _number(int, least=0), 0, ("--seed",), "seed for sampled experiments")
_SCHEDULE = Field("N_schedule", _schedule, [], ("--schedule",),
                  "comma-separated truncation depths, e.g. 10,20,40 (default: full length)",
                  to_raw=(lambda text, args: [n for n in text.split(",") if n.strip()],))
_TOLERANCES = Field("tolerances", None, {}, fields=(
    Field("tol", _NON_NEGATIVE_FLOAT, 1e-8, ("--tol",), "iteration residual tolerance"),
))

# kind -> (subcommand, its help, pipeline, input fields in echo order,
#          the other keys it reads in echo order)
_KINDS = {
    "criteria": ("check", "run every sequence criterion across a truncation schedule",
                 _run_criteria, (_SEQUENCE,), (_GRID, _SCHEDULE)),
    "interpolate": ("interpolate", "closed-form interpolation on one zero set",
                    _run_interpolate, (_SEQUENCE, _TARGETS), (_GRID,)),
    "union": ("union", "joint interpolation across two disjoint zero sets", _run_union, (
        _SEQUENCE,
        Field("sequence_b", _sequence, _REQUIRED, ("--sequence-b",), "the second sequence file",
              to_raw=(_path,)),
        _TARGETS,
        _TARGETS_B,
    ), ()),
    "nearby": ("nearby", "iterative interpolation on a perturbed node set", _run_nearby, (
        _SEQUENCE,
        _TARGETS,
        Field("radius_scale", _FLOAT, 0.8, ("--radius-scale",),
              "perturbation radius as a fraction of the contraction threshold"),
        Field("max_iter", _POSITIVE_INT, 30, ("--max-iter",), "correction steps allowed"),
        _MIN_SEP,
    ), (_GRID, _SEED, _TOLERANCES)),
    "perturb": ("perturb", "Monte Carlo perturbation inequality report", _run_perturb, (
        _SEQUENCE,
        Field("radius", _FLOAT, _REQUIRED, ("--radius",), "pseudohyperbolic perturbation radius"),
        Field("trials", _POSITIVE_INT, 100, ("--trials",), "number of sampled perturbations"),
        _MIN_SEP,
    ), (_GRID, _SEED)),
    "shift": ("shift", "zeros of the shifted product", _run_shift, (
        _SEQUENCE,
        Field("point", None, _REQUIRED, ("--point",), "shift point 're,im'",
              to_raw=(lambda text, args: dict(zip(("re", "im"), text.split(",", 1))),), fields=_RE_IM),
    ), (_GRID,)),
}

KINDS = tuple(_KINDS)


def _config_fields(kind: str) -> tuple[Field, ...]:
    """The fields of a config of this kind after "kind", in echo order."""
    return (Field("inputs", fields=_KINDS[kind][3]), *_KINDS[kind][4])


def run(config: ExperimentConfig) -> ReportBundle:
    """Dispatch a validated configuration to its module pipeline."""
    return _KINDS[config.kind][2](config)


# ---------------------------------------------------------------------------
# emission


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _format_cell(value) -> Any:
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
        return repr(float(value))
    return str(value)


def _csv_text(table: Table) -> str:
    import csv

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows([_format_cell(v) for v in row] for row in table.rows)
    return text.getvalue()


def _dat_text(series: Series) -> str:
    lines = [f"# {series.label}", *(f"{float(x)!r} {float(y)!r}" for x, y in zip(series.x, series.y))]
    return "\n".join(lines) + "\n"


# format -> (bundle part, file suffix, text of one item), one file per item
_FILE_FORMATS = {"csv": ("tables", "csv", _csv_text), "plotdata": ("series", "dat", _dat_text)}


def emit(bundle: ReportBundle, format: str = "json", path=None) -> Optional[str]:
    """Write a bundle deterministically.

    json writes one file (or returns the text when path is None); csv and
    plotdata treat path as a directory and write one file per table or
    series, always with LF line endings.
    """
    if format == "json":
        text = json.dumps(bundle.to_json_dict(), indent=2) + "\n"
        if path is None:
            return text
        _write_text(Path(path), text)
        return None

    if path is None:
        raise ConfigInvalid(f"format {format} requires an output directory")
    if format not in _FILE_FORMATS:
        raise ConfigInvalid(f"unknown output format {format!r}")
    part, suffix, text = _FILE_FORMATS[format]
    # _write_text creates the directory, and fails if path is a file
    for name, item in getattr(bundle, part).items():
        _write_text(Path(path) / f"{name}.{suffix}", text(item))
    return None


# ---------------------------------------------------------------------------
# argument parsing


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output file (json) or directory (csv, plotdata)")
    parser.add_argument(
        "--format", choices=("json", "csv", "plotdata"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschke-lab",
        description="Finite Blaschke products: sequence criteria and model-space interpolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a sequence file")
    gen.add_argument("--generator", choices=tuple(_GENERATORS), required=True)
    _add_flags(gen, _GENERATOR_PARAMS)
    gen.add_argument("--name", default=None, help="name stored in the file metadata")
    gen.add_argument("--out", default=None, help="output file (default: stdout)")

    for kind, (command, help_text, *_) in _KINDS.items():
        experiment = sub.add_parser(command, help=help_text)
        _add_flags(experiment, _config_fields(kind))
        _add_output_flags(experiment)

    runner = sub.add_parser("run", help="run an experiment from a config file")
    runner.add_argument("config", help="path to a config file")
    _add_output_flags(runner)
    return parser


def _run_gen(args) -> int:
    spec = _sequence(_generator_spec(args.generator, args), "gen")
    name = args.name or _GENERATORS[args.generator][2].format(**spec["params"])
    text = _sequence_text(_resolve_sequence(spec), {"name": name, **spec})
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(args.out), text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _run_gen(args)
        if args.command == "run":
            raw = _read_json(args.config, "config file")
        else:
            kind = next(kind for kind, entry in _KINDS.items() if entry[0] == args.command)
            raw = {"kind": kind, **_raw_from_args(_config_fields(kind), args)}
        bundle = run(validate_config(raw))
        text = emit(bundle, format=args.format, path=args.out)
        if text is not None:
            sys.stdout.write(text)
        return 0
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (BlaschkeLabError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
