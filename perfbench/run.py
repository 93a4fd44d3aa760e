"""End-to-end benchmark of the blaschke-lab CLI.

One client, closed loop: this process spawns one fresh
``python -m blaschke_lab ...`` per experiment, waits for it, checks its
report, and only then spawns the next.  Inputs are files generated here
from --seed; the program sees nothing else.

    python3 perfbench/run.py --workload check-deep --seed 0 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics of untraced experiments.
--trace 1 alternates untraced and traced experiments (see tracing.py)
and reports the per-layer metrics.  --workload all runs every workload.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_ENV = "BLASCHKE_LAB_THREADS"
POOL_THREADS = 2
SETUP_REPEATS = 7
EXPERIMENT_TIMEOUT_S = 60.0

SCHEDULE = (125, 250, 500)
PERTURB_RADIUS = 0.3
PERTURB_TRIALS = 200
PERTURB_N = 20
FILL = 1.0 + 0.0j

SETUP_CODE = (
    "import sys\n"
    "from blaschke_lab.cli import load_sequence_file\n"
    "for path in sys.argv[1:]:\n"
    "    load_sequence_file(path)\n"
)


@dataclass
class Input:
    """One input of a workload: CLI arguments, the files they name, and the oracle."""

    label: str
    description: str
    argv: list[str]
    files: dict[str, np.ndarray]
    check: Callable[[dict], list[str]]
    threads: int = 1
    known_defect: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], list[Input]]
    # An input the program is known to get wrong: run once per benchmark run,
    # untimed and not counted, so that the defect stays in the output.
    defect_probe: Callable[[int], Input] | None = None


def _check_deep(seed: int) -> list[Input]:
    zeros = inputs.deep_set(seed)
    return [
        Input(
            label="deep",
            description=f"seed {seed}: random N=500, 1-|a| log-uniform in [1e-3, 0.5], schedule 125,250,500",
            argv=["check", "--sequence", "deep.json", "--schedule", ",".join(map(str, SCHEDULE))],
            files={"deep.json": zeros},
            check=lambda report: oracles.check_criteria(report, zeros, SCHEDULE),
        )
    ]


def _perturb_mc(seed: int) -> list[Input]:
    # The same experiment with and without the thread pool: the pool's effect
    # shows against a baseline, and the reports must not differ.
    centers = inputs.frostman_centers(PERTURB_N)
    argv = [
        "perturb", "--generator", "frostman_example", "--n", str(PERTURB_N),
        "--radius", str(PERTURB_RADIUS), "--trials", str(PERTURB_TRIALS), "--seed", str(seed),
    ]
    return [
        Input(
            label=f"threads{threads}",
            description=(
                f"trial seed {seed}: frostman_example n={PERTURB_N} (1-|a| from 0.5 to 2^-{PERTURB_N}), "
                f"radius {PERTURB_RADIUS}, {PERTURB_TRIALS} trials, {THREADS_ENV}={threads}"
            ),
            argv=argv,
            files={},
            check=lambda report: oracles.check_perturb(report, centers, PERTURB_RADIUS, PERTURB_TRIALS),
            threads=threads,
        )
        for threads in (1, POOL_THREADS)
    ]


def _interpolate_input(label: str, description: str, zeros: np.ndarray, known_defect: str = "") -> Input:
    fill = f"{FILL.real!r},{FILL.imag!r}"
    return Input(
        label=label,
        description=description,
        argv=["interpolate", "--sequence", f"{label}.json", "--fill", fill],
        files={f"{label}.json": zeros},
        check=lambda report: oracles.check_interpolate(report, zeros, FILL),
        known_defect=known_defect,
    )


def _interp_scan(seed: int) -> list[Input]:
    return [
        _interpolate_input("separated", "dyadic N=254, 1-|a| = 2^-k for k = 1..7 (seed-independent)",
                           inputs.dyadic_zero_set()),
        _interpolate_input("rotated", f"seed {seed}: the dyadic set with each level turned by a random share "
                           "of its spacing", inputs.rotated_dyadic_set(seed)),
    ]


def _interp_scan_defect(seed: int) -> Input:
    return _interpolate_input(
        "unseparated", f"seed {seed}: random N=254, 1-|a| log-uniform in [1e-2, 0.5]", inputs.unseparated_set(seed),
        known_defect="on unseparated sets the Lagrange-form interpolant loses all accuracy on the circle "
        "while ill_conditioned stays False",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-deep", "the O(N^3) Carleson path does most of the work; no interpolation or sampling", _check_deep),
        Workload("perturb-mc", "tiny N, per-call overhead of scan_circle dominates; the only user of the thread pool", _perturb_mc),
        Workload("interp-scan", "sup_norm and lebesgue_constant scans evaluate the Lagrange basis; O(N^3) kernel solve",
                 _interp_scan, _interp_scan_defect),
    )
}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


class Spawner:
    """Runs and measures children through spawner.py, so their ru_maxrss is their own."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawner.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._proc.terminate()  # spawner.py kills its running child first
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=EXPERIMENT_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def run(self, argv: list[str], cwd: Path, env: dict) -> Sample:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "timeout": EXPERIMENT_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        stderr = (cwd / "stderr.txt").read_text(errors="replace").strip()
        return Sample(stderr=stderr, **json.loads(line))


def child_env() -> dict:
    """The environment of every child: the checkout's sources, thread pools pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def environment(env: dict, nproc: int, pool_threads: list[int]) -> dict:
    """Versions and thread settings; pool_threads holds BLASCHKE_LAB_THREADS per input."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "nproc": nproc,
        "threads": {**{var: env[var] for var in BLAS_THREAD_VARS}, THREADS_ENV: pool_threads},
    }


# ---------------------------------------------------------------------------
# one workload


@dataclass
class Verdicts:
    """Failure reasons per experiment.

    Every report must match byte for byte the first report of the same CLI
    arguments, whatever the thread count; the oracle judges that first one.
    """

    first: dict[tuple[str, ...], bytes] = field(default_factory=dict)
    oracle: dict[tuple[str, ...], list[str]] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[str, list[list[str]]] = field(default_factory=dict)

    def judge(self, inp: Input, sample: Sample, report_path: Path) -> None:
        self.attempted += 1
        reasons = []
        if sample.code != 0:
            last = sample.stderr.splitlines()[-1] if sample.stderr else ""
            reasons.append(f"exit code {sample.code}: {last}")
        elif not report_path.is_file():
            reasons.append("no report written")
        else:
            data = report_path.read_bytes()
            report_path.unlink()
            key = tuple(inp.argv)
            if key not in self.first:
                self.first[key] = data
                try:
                    self.oracle[key] = inp.check(json.loads(data))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self.oracle[key] = [f"malformed report: {exc!r}"]
            elif data != self.first[key]:
                reasons.append("report differs from the first report of the same arguments")
            reasons += self.oracle[key]
        if reasons:
            self.failures.setdefault(inp.label, []).append(reasons)

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())


@dataclass
class Runs:
    """Everything measured in one benchmark run, keyed by input label."""

    setups: list[Sample]
    untraced: dict[str, list[Sample]]
    traced_wall: dict[str, list[float]]
    layers: dict[str, list[dict[str, float]]]
    verdicts: Verdicts


def _per_input(values: dict[str, list[float]]) -> float:
    """Mean over inputs of the per-input median, so alternating inputs weigh equally."""
    return statistics.fmean(statistics.median(v) for v in values.values())


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    workdir = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    items = workload.inputs(seed)
    print(f"workload {workload.name}: {workload.why}")
    for inp in items:
        print(f"  input {inp.label}: {inp.description}")
    pool_threads = [min(inp.threads, nproc) for inp in items]
    print("env " + json.dumps(environment(env, nproc, pool_threads), sort_keys=True))
    try:
        for inp in items:
            for name, points in inp.files.items():
                inputs.write_sequence(workdir / name, points, f"{workload.name}-{inp.label}")
        with Spawner() as spawner:

            def child(argv: list[str], threads: int = 1) -> Sample:
                return spawner.run(argv, workdir, {**env, THREADS_ENV: str(min(threads, nproc))})

            runs = _experiments(items, seconds, trace, child, workdir)
            if workload.defect_probe is not None:
                _probe_known_defect(workload.defect_probe(seed), child, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = _layer_metrics(runs) if trace else _end_to_end_metrics(runs)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")
    walls = [s.wall_s for samples in runs.untraced.values() for s in samples]
    # Not gated: in a run of at most about 16 experiments the percentile with
    # ten samples beyond it is near the fastest, and the slowest mostly
    # measures the host's noise.
    print(f"  wall_s_tail {max(walls):.6g} s: p100, the slowest of n={len(walls)} untraced experiments")
    for label, samples in runs.untraced.items():
        print(f"  wall_s samples {label}: " + " ".join(f"{s.wall_s:.3f}" for s in samples))

    verdicts = runs.verdicts
    print(f"  fail_ratio {verdicts.failed}/{verdicts.attempted} = {verdicts.failed / verdicts.attempted:.3g}")
    for inp in items:
        failures = verdicts.failures.get(inp.label, [])
        if failures:
            print(f"  {inp.label}: {len(failures)} failed experiments; first: {'; '.join(failures[0])}")
    return {
        "correct": verdicts.failed == 0 and bool(metrics),
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def _probe_known_defect(inp: Input, child: Callable, workdir: Path) -> None:
    """Run one experiment on an input the program is known to get wrong and print the verdict.

    The timed inputs are ones on which the program is correct, so the probe
    is neither timed nor counted in attempted/failed.  It prints the
    defect in every run until a fix to the program makes the probe pass.
    """
    for name, points in inp.files.items():
        inputs.write_sequence(workdir / name, points, f"probe-{inp.label}")
    report = workdir / "report.json"
    verdicts = Verdicts()
    sample = child([sys.executable, "-m", "blaschke_lab", *inp.argv, "--out", report.name], inp.threads)
    verdicts.judge(inp, sample, report)
    failures = verdicts.failures.get(inp.label)
    if failures:
        print(f"  KNOWN DEFECT (untimed probe, not counted in attempted/failed): input {inp.label}, "
              f"{inp.description}: {inp.known_defect}; {'; '.join(failures[0])}")
    else:
        print(f"  known-defect probe {inp.label} now passes its oracle: the defect is fixed, drop the probe")


def _experiments(items: list[Input], seconds: float, trace: bool, child: Callable, workdir: Path) -> Runs:
    setup_argv = [sys.executable, "-c", SETUP_CODE, *(name for inp in items for name in inp.files)]

    def setup() -> Sample:
        sample = child(setup_argv)
        if sample.code != 0:
            raise SystemExit(f"set-up failed: {sample.stderr}")
        return sample

    setups = [setup() for _ in range(SETUP_REPEATS)]

    runs = Runs(setups, {i.label: [] for i in items}, {i.label: [] for i in items},
                {i.label: [] for i in items}, Verdicts())
    report, spans = workdir / "report.json", workdir / "spans.json"
    # Whole rounds only, so that alternating inputs stay balanced: the last
    # round starts before the time is up and may end after it.  One more
    # set-up per round spreads the set-up samples over the whole run.
    deadline = time.perf_counter() + seconds
    while True:
        for inp in items:
            sample = child([sys.executable, "-m", "blaschke_lab", *inp.argv, "--out", report.name], inp.threads)
            runs.verdicts.judge(inp, sample, report)
            runs.untraced[inp.label].append(sample)
            if not trace:
                continue
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), spans.name,
                    repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--", *inp.argv, "--out", report.name]
            sample = child(argv, inp.threads)
            runs.verdicts.judge(inp, sample, report)
            runs.traced_wall[inp.label].append(sample.wall_s)
            if spans.is_file():
                runs.layers[inp.label].append(tracing.layer_metrics(json.loads(spans.read_text())))
                spans.unlink()
        setups.append(setup())
        if time.perf_counter() >= deadline:
            return runs


def _end_to_end_metrics(runs: Runs) -> dict[str, tuple[float, str, str]]:
    n = sum(len(v) for v in runs.untraced.values())

    def per_input(key):
        return _per_input({k: [getattr(s, key) for s in v] for k, v in runs.untraced.items()})

    return {
        "setup_s": (statistics.median(s.wall_s for s in runs.setups), "s",
                    f"median of {len(runs.setups)} fresh interpreters importing the CLI and loading the inputs, spread over the run"),
        "wall_s": (per_input("wall_s"), "s", f"median per input, n={n} experiments"),
        "cpu_s": (per_input("cpu_s"), "s", f"median per input of the child's user+sys time, n={n}"),
        "peak_rss_mb": (per_input("peak_rss_mb"), "MiB", f"median per input of the child's max RSS, n={n}"),
    }


def _layer_metrics(runs: Runs) -> dict[str, tuple[float, str, str]]:
    if not all(runs.layers.values()):
        return {}
    n = min(len(v) for v in runs.layers.values())
    note = f"median per input of {n} traced experiments"
    metrics = {
        name: (_per_input({k: [m[name] for m in v] for k, v in runs.layers.items()}), unit, note)
        for name, unit in tracing.LAYER_METRICS.items()
    }
    overhead = statistics.fmean(
        statistics.median(runs.traced_wall[k]) - statistics.median(s.wall_s for s in runs.untraced[k])
        for k in runs.untraced
    )
    metrics["trace.overhead_s"] = (overhead, "s", "traced minus untraced median wall_s")
    return metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blaschke_lab" / "cli.py").is_file():
        print(f"error: no blaschke_lab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(f"{name} " + json.dumps(res))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
