"""Configuration validation, file round trips, and end-to-end CLI runs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blaschke_lab
from blaschke_lab import cli, interpolation
from blaschke_lab.blaschke import BlaschkeProduct, TargetVector, ZeroSequence
from blaschke_lab.cli import (
    ExperimentConfig,
    ReportBundle,
    Series,
    Table,
    emit,
    load_sequence_file,
    validate_config,
    write_sequence_file,
)
from blaschke_lab.errors import ConfigInvalid, IoFailure
from blaschke_lab.geometry import DiskPoint
from blaschke_lab.interpolation import interpolate_union, solve_kb
from blaschke_lab.sequences import radial_sequence


def minimal_criteria_config() -> dict:
    return {
        "kind": "criteria",
        "inputs": {"sequence": {"generator": "frostman_example", "params": {"N": 8}}},
        "N_schedule": [4, 8],
    }


RADIAL3 = {"generator": "radial_sequence", "params": {"q": 0.5, "N": 3}}


def kind_config(kind, sequence=RADIAL3, **inputs) -> dict:
    return {"kind": kind, "inputs": {"sequence": sequence, **inputs}}


def criteria_config(**top) -> dict:
    return {"kind": "criteria", "inputs": {"sequence": RADIAL3}, "N_schedule": [2], **top}


def write_two_sequences(tmp_path) -> tuple[str, str]:
    """Two disjoint two-point sequence files, a.json and b.json in tmp_path."""
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    write_sequence_file(path_a, ZeroSequence([DiskPoint(0.1, 0.0), DiskPoint(-0.3, 0.2)]))
    write_sequence_file(path_b, ZeroSequence([DiskPoint(0.5, 0.0), DiskPoint(0.0, -0.4)]))
    return str(path_a), str(path_b)


def experiment_argv(tmp_path, command) -> list:
    """argv for a small run of one experiment command; union runs on write_two_sequences."""
    radial = ["--generator", "radial_sequence", "--n", "4"]
    path_a, path_b = write_two_sequences(tmp_path)
    argv = {
        "check": ["check", *radial],
        "interpolate": ["interpolate", *radial, "--fill", "1,0.5"],
        "union": ["union", "--sequence", path_a, "--sequence-b", path_b],
        "nearby": ["nearby", *radial, "--seed", "3"],
        "perturb": ["perturb", "--generator", "frostman_example", "--n", "8", "--radius", "0.05", "--trials", "3"],
        "shift": ["shift", *radial, "--point", "0.1,0"],
    }[command]
    return argv + ["--grid-size", "256"]


def malformed(case_id, config=None, sequence_file=None, command="run"):
    """One malformed input: a config to run, or a sequence file for run or check."""
    return pytest.param(config, sequence_file, command, id=case_id)


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def malformed_argv(tmp_path, config=None, sequence_file=None, command="run") -> list:
    """argv for one malformed input: a config run, or a command on a sequence file.

    command is "run", "check", or the argv of a command before its --sequence.
    """
    points = sequence_file or {"points": [{"re": 0.1, "im": 0.0}, {"re": 0.0, "im": 0.5}]}
    seq_path = write_json(tmp_path / "seq.json", points)
    if command == "check":
        return ["check", "--sequence", seq_path, "--schedule", "1", "--grid-size", "256"]
    if command != "run":
        return [*command, "--sequence", seq_path, "--grid-size", "256"]
    if config is None:
        config = {"kind": "criteria", "inputs": {"sequence": {"path": seq_path}}, "N_schedule": [1]}
    return ["run", write_json(tmp_path / "config.json", config)]


class TestValidateConfig:
    def test_defaults_filled(self):
        config = validate_config(minimal_criteria_config())
        assert isinstance(config, ExperimentConfig)
        assert config.grid == {"base_count": 4096, "refinement_rounds": 3}
        assert config.seed == 0
        assert config.tolerances == {"tol": 1e-8}
        assert config.N_schedule == (4, 8)

    def test_unknown_top_level_key(self):
        raw = minimal_criteria_config()
        raw["bogus_key"] = 1
        with pytest.raises(ConfigInvalid, match="bogus_key"):
            validate_config(raw)

    def test_unknown_grid_key(self):
        raw = minimal_criteria_config()
        raw["grid"] = {"base_count": 256, "spacing": "log"}
        with pytest.raises(ConfigInvalid, match="spacing"):
            validate_config(raw)

    def test_bad_grid_values(self):
        raw = minimal_criteria_config()
        raw["grid"] = {"base_count": 0}
        with pytest.raises(ConfigInvalid):
            validate_config(raw)

    def test_unknown_tolerance_key(self):
        raw = minimal_criteria_config()
        raw["tolerances"] = {"tol": 1e-8, "rtol": 1e-6}
        with pytest.raises(ConfigInvalid, match="rtol"):
            validate_config(raw)

    def test_unknown_input_key(self):
        raw = minimal_criteria_config()
        raw["inputs"]["extra"] = True
        with pytest.raises(ConfigInvalid, match="extra"):
            validate_config(raw)

    def test_unknown_generator(self):
        raw = minimal_criteria_config()
        raw["inputs"]["sequence"] = {"generator": "fibonacci", "params": {}}
        with pytest.raises(ConfigInvalid, match="fibonacci"):
            validate_config(raw)

    def test_unknown_generator_param(self):
        raw = minimal_criteria_config()
        raw["inputs"]["sequence"] = {
            "generator": "radial_sequence",
            "params": {"q": 0.5, "N": 5, "phase": 0.1},
        }
        with pytest.raises(ConfigInvalid, match="phase"):
            validate_config(raw)

    def test_unknown_kind(self):
        raw = minimal_criteria_config()
        raw["kind"] = "integrate"
        with pytest.raises(ConfigInvalid, match="integrate"):
            validate_config(raw)

    def test_criteria_needs_schedule(self):
        raw = minimal_criteria_config()
        raw["N_schedule"] = []
        with pytest.raises(ConfigInvalid, match="N_schedule"):
            validate_config(raw)

    def test_schedule_entries_positive(self):
        raw = minimal_criteria_config()
        raw["N_schedule"] = [4, -1]
        with pytest.raises(ConfigInvalid, match="positive"):
            validate_config(raw)

    def test_nearby_defaults(self):
        config = validate_config(
            {
                "kind": "nearby",
                "inputs": {
                    "sequence": {"generator": "radial_sequence", "params": {"q": 0.5, "N": 3}},
                    "targets": {"fill": [1, 0]},
                },
            }
        )
        assert config.inputs["radius_scale"] == 0.8
        assert config.inputs["max_iter"] == 30
        assert "min_sep" not in config.inputs

    def test_perturb_defaults_and_trial_floor(self):
        raw = {
            "kind": "perturb",
            "inputs": {
                "sequence": {"generator": "frostman_example", "params": {"N": 6}},
                "radius": 0.05,
            },
        }
        config = validate_config(raw)
        assert config.inputs["trials"] == 100
        raw["inputs"]["trials"] = 0
        with pytest.raises(ConfigInvalid, match="trials"):
            validate_config(raw)

    def test_shift_point_normalized(self):
        config = validate_config(
            {
                "kind": "shift",
                "inputs": {
                    "sequence": {"generator": "radial_sequence", "params": {"q": 0.5, "N": 3}},
                    "point": {"re": "0.1", "im": 0},
                },
            }
        )
        assert config.inputs["point"] == {"re": 0.1, "im": 0.0}

    def test_shift_point_extra_key(self):
        with pytest.raises(ConfigInvalid, match="abs"):
            validate_config(
                {
                    "kind": "shift",
                    "inputs": {
                        "sequence": {"generator": "radial_sequence", "params": {"q": 0.5, "N": 3}},
                        "point": {"re": 0.1, "im": 0, "abs": 0.1},
                    },
                }
            )

    def test_target_values_normalized(self):
        config = validate_config(
            {
                "kind": "interpolate",
                "inputs": {
                    "sequence": {"generator": "radial_sequence", "params": {"q": 0.5, "N": 2}},
                    "targets": {"values": [[1, 0], ["0.5", "-0.25"]]},
                },
            }
        )
        assert config.inputs["targets"] == {"values": [[1.0, 0.0], [0.5, -0.25]]}

    def test_config_as_dict_round_trips(self):
        config = validate_config(minimal_criteria_config())
        assert validate_config(config.as_dict()) == config


class TestSequenceFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        seq = ZeroSequence(
            [
                DiskPoint(1.0 / 3.0, -2.0 / 7.0),
                DiskPoint(-0.125, 0.625),
                DiskPoint(1.0 - 2.0**-40, 0.0),
            ]
        )
        path = tmp_path / "seq.json"
        write_sequence_file(path, seq, meta={"name": "probe"})
        loaded, meta = load_sequence_file(path)
        assert meta == {"name": "probe"}
        assert np.array_equal(
            loaded.values.view(np.uint64), seq.values.view(np.uint64)
        )

    def test_default_meta(self, tmp_path):
        path = tmp_path / "seq.json"
        write_sequence_file(path, ZeroSequence([DiskPoint(0.5, 0.0)]))
        _, meta = load_sequence_file(path)
        assert meta == {"name": "sequence"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_sequence_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigInvalid):
            load_sequence_file(path)

    def test_unknown_file_keys(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(
            json.dumps({"points": [], "meta": {}, "checksum": 7}), encoding="utf-8"
        )
        with pytest.raises(ConfigInvalid, match="checksum"):
            load_sequence_file(path)

    def test_unknown_point_keys(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(
            json.dumps({"points": [{"re": 0.1, "im": 0.0, "abs": 0.1}]}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigInvalid, match="point 0"):
            load_sequence_file(path)

    def test_unwritable_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        with pytest.raises(IoFailure):
            write_sequence_file(blocker / "seq.json", ZeroSequence([DiskPoint(0.5, 0.0)]))


class TestEmit:
    def bundle(self) -> ReportBundle:
        return ReportBundle(
            config={"kind": "demo"},
            results={"value": 1.5},
            tables={
                "stats": Table(columns=("index", "value"), rows=((0, 0.1), (1, 0.2)))
            },
            series={
                "trend": Series(
                    label="demo trend", x_label="x", y_label="y", x=(0.0, 1.0), y=(0.5, 0.25)
                )
            },
        )

    def test_json_to_string(self):
        text = emit(self.bundle(), format="json", path=None)
        payload = json.loads(text)
        assert payload["results"]["value"] == 1.5
        assert payload["tables"]["stats"]["columns"] == ["index", "value"]

    def test_csv_layout(self, tmp_path):
        emit(self.bundle(), format="csv", path=tmp_path)
        raw = (tmp_path / "stats.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "index,value"
        assert float(lines[1].split(",")[1]) == 0.1

    def test_plotdata_layout(self, tmp_path):
        emit(self.bundle(), format="plotdata", path=tmp_path)
        lines = (tmp_path / "trend.dat").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# demo trend"
        x, y = lines[1].split()
        assert float(x) == 0.0 and float(y) == 0.5

    def test_directory_required(self):
        with pytest.raises(ConfigInvalid):
            emit(self.bundle(), format="csv", path=None)

    def test_path_collision(self, tmp_path):
        blocker = tmp_path / "out"
        blocker.write_text("x", encoding="utf-8")
        with pytest.raises(IoFailure):
            emit(self.bundle(), format="csv", path=blocker)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            emit(self.bundle(), format="yaml", path=tmp_path)

    def test_unknown_format_without_directory(self):
        # a missing directory is reported before the format is looked up
        with pytest.raises(ConfigInvalid, match="format yaml requires an output directory"):
            emit(self.bundle(), format="yaml", path=None)


# modules that no command runs
_UNUSED_BY_ALL = ["numpy.ma", "numpy.random", "secrets", "_hashlib"]


class TestMainCommands:
    def test_gen_writes_loadable_file(self, tmp_path):
        out = tmp_path / "seq.json"
        rc = cli.main(
            ["gen", "--generator", "radial_sequence", "--q", "0.5", "--n", "5", "--out", str(out)]
        )
        assert rc == 0
        seq, meta = load_sequence_file(out)
        assert len(seq) == 5
        assert meta["generator"] == "radial_sequence"

    def test_gen_stdout(self, capsys):
        rc = cli.main(["gen", "--generator", "frostman_example", "--n", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 4

    def test_check_stdout_json(self, capsys):
        rc = cli.main(
            [
                "check",
                "--generator",
                "radial_sequence",
                "--n",
                "6",
                "--schedule",
                "3,6",
                "--grid-size",
                "256",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["kind"] == "criteria"
        assert [entry["N"] for entry in payload["results"]["per_N"]] == [3, 6]
        assert "criteria_trend" in payload["tables"]
        assert "frostman_sum" in payload["series"]

    def test_check_csv_files(self, tmp_path):
        rc = cli.main(
            [
                "check",
                "--generator",
                "radial_sequence",
                "--n",
                "4",
                "--grid-size",
                "256",
                "--format",
                "csv",
                "--out",
                str(tmp_path / "csvdir"),
            ]
        )
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "csvdir").glob("*.csv"))
        assert names == ["cohn_detail.csv", "criteria_trend.csv", "frostman_detail.csv"]
        header = (tmp_path / "csvdir" / "criteria_trend.csv").read_text().splitlines()[0]
        assert header == "N,carleson_delta,frostman_sum,cohn_sum,vasyunin_sum"

    def test_check_plotdata_files(self, tmp_path):
        rc = cli.main(
            [
                "check",
                "--generator",
                "radial_sequence",
                "--n",
                "4",
                "--grid-size",
                "256",
                "--format",
                "plotdata",
                "--out",
                str(tmp_path / "plots"),
            ]
        )
        assert rc == 0
        data = (tmp_path / "plots" / "carleson_delta.dat").read_text().splitlines()
        assert data[0].startswith("# ")
        assert len(data) == 2

    def test_interpolate_nodes_are_exact(self, capsys):
        rc = cli.main(
            [
                "interpolate",
                "--generator",
                "radial_sequence",
                "--n",
                "5",
                "--fill",
                "1,0.5",
                "--grid-size",
                "256",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["lebesgue_constant"] >= 1.0
        assert len(payload["series"]["boundary_modulus"]["x"]) == 256
        assert payload["tables"]["nodes"]["rows"] == [[j, 1.0, 0.5] for j in range(5)]
        # the report leaves the node values out: the interpolant takes its targets exactly
        seq, targets = radial_sequence(0.5, 5), TargetVector(np.full(5, 1.0 + 0.5j))
        rep = solve_kb(BlaschkeProduct(seq), targets)
        assert rep(seq.values).tobytes() == targets.values.tobytes()

    def test_union_end_to_end(self, tmp_path, capsys):
        path_a, path_b = write_two_sequences(tmp_path)
        rc = cli.main(
            [
                "union",
                "--sequence",
                path_a,
                "--sequence-b",
                path_b,
                "--fill",
                "1,0",
                "--fill-b",
                "0,1",
                "--grid-size",
                "256",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # tilde_gamma, bit for bit, from the library's union on the same inputs
        seq_a, seq_z = load_sequence_file(path_a)[0], load_sequence_file(path_b)[0]
        alpha, beta = np.ones(len(seq_a), complex), np.full(len(seq_z), 1j)
        union = interpolate_union(BlaschkeProduct(seq_a), BlaschkeProduct(seq_z), alpha, beta)
        reported = np.array([complex(t["re"], t["im"]) for t in payload["results"]["tilde_gamma"]])
        assert reported.tobytes() == np.array(union.tilde_gamma).tobytes()
        assert payload["tables"]["tilde_gamma"]["rows"] == [[j, t.real, t.imag] for j, t in enumerate(union.tilde_gamma)]
        # the node values the report leaves out, exact by construction: G is alpha on A and
        # beta on Z, G1 alpha and 0, G2 0 and beta
        zero_a, zero_z = np.zeros_like(alpha), np.zeros_like(beta)
        for f, on_a, on_z in ((union.G, alpha, beta), (union.G1, alpha, zero_z), (union.G2, zero_a, beta)):
            assert f(seq_a.values).tobytes() == on_a.tobytes()
            assert f(seq_z.values).tobytes() == on_z.tobytes()

    def test_nearby_converges(self, capsys):
        rc = cli.main(
            [
                "nearby",
                "--generator",
                "radial_sequence",
                "--n",
                "4",
                "--fill",
                "1,0",
                "--seed",
                "3",
                "--grid-size",
                "256",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # a run that does not converge exits 3 without a report
        assert payload["results"]["final_residual"] <= 1e-8
        steps = payload["tables"]["steps"]["rows"]
        assert len(steps) == payload["results"]["steps"]

    def test_nearby_scans_the_circle_once(self, monkeypatch, capsys):
        # The radius and nearby_iterate's contraction test read one Lebesgue constant,
        # one weighted Frostman scan.
        calls = []
        original = interpolation._frostman_scan

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(interpolation, "_frostman_scan", counted)
        argv = ["nearby", "--generator", "radial_sequence", "--n", "4", "--seed", "3", "--grid-size", "256"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["results"]["final_residual"] <= 1e-8
        assert len(calls) == 1

    def test_shift_roots_reported(self, capsys):
        rc = cli.main(
            [
                "shift",
                "--generator",
                "radial_sequence",
                "--n",
                "3",
                "--point",
                "0.1,0",
                "--grid-size",
                "256",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["max_residual"] <= 1e-8
        assert len(payload["tables"]["roots"]["rows"]) == 3

    # a field that cannot vary, like a residual the construction makes 0, has no place here
    @pytest.mark.parametrize(
        "command, results, tables, series",
        [
            pytest.param(
                "interpolate", ["degree", "ill_conditioned", "sup_norm", "lebesgue_constant"],
                {"nodes": ["index", "target_re", "target_im"]}, ["boundary_modulus"], id="interpolate",
            ),
            pytest.param(
                "union", ["degrees", "tilde_gamma"], {"tilde_gamma": ["slot", "re", "im"]}, ["boundary_modulus"],
                id="union",
            ),
            pytest.param(
                "nearby",
                ["M_used", "epsilon_used", "nearness", "radius", "steps", "contraction_marginal", "final_residual"],
                {"steps": ["step", "residual_sup", "bound_curve"]}, ["residual_vs_step", "bound_vs_step"], id="nearby",
            ),
        ],
    )
    def test_report_layout(self, tmp_path, capsys, command, results, tables, series):
        assert cli.main(experiment_argv(tmp_path, command)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["results"]) == results
        assert {name: table["columns"] for name, table in payload["tables"].items()} == tables
        assert list(payload["series"]) == series

    @pytest.mark.parametrize("command", ["check", "interpolate", "union", "nearby", "perturb", "shift"])
    def test_every_command_writes_csv_and_plotdata(self, tmp_path, command):
        argv = experiment_argv(tmp_path, command)
        assert cli.main(argv + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
        assert cli.main(argv + ["--format", "plotdata", "--out", str(tmp_path / "plots")]) == 0
        assert list((tmp_path / "csv").glob("*.csv"))
        assert list((tmp_path / "plots").glob("*.dat"))

    @pytest.mark.parametrize(
        "argv, table",
        [
            pytest.param(["interpolate", "--fill", "1,0.5"], "nodes", id="interpolate"),
            pytest.param(["shift", "--point", "0.1,0"], "roots", id="shift"),
        ],
    )
    def test_complex_table_cells_are_numbers(self, tmp_path, argv, table):
        sequence = ["--generator", "radial_sequence", "--n", "3", "--grid-size", "256"]
        assert cli.main(argv + sequence + ["--format", "csv", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / f"{table}.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert all(np.isfinite(float(cell)) for cell in row.split(","))

    def test_perturb_aggregates(self, capsys):
        rc = cli.main(
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
                "11",
                "--grid-size",
                "256",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        aggregate = payload["results"]["aggregate"]
        assert aggregate["trials"] == 5
        assert aggregate["total_violations"] == 0
        assert len(payload["tables"]["trials"]["rows"]) == 5

    def test_run_subcommand(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "kind": "shift",
                    "inputs": {
                        "sequence": {"generator": "radial_sequence", "params": {"q": 0.5, "N": 3}},
                        "point": {"re": 0.2, "im": 0.1},
                    },
                    "grid": {"base_count": 256},
                }
            ),
            encoding="utf-8",
        )
        rc = cli.main(["run", str(config_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["kind"] == "shift"
        assert payload["results"]["shift_point"] == {"re": 0.2, "im": 0.1}

    def test_module_entry_point(self):
        # the child imports the same package as this test, wherever it came from
        src = os.path.dirname(os.path.dirname(os.path.abspath(blaschke_lab.__file__)))
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + ([inherited] if inherited else [])))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "blaschke_lab",
                "check",
                "--generator",
                "radial_sequence",
                "--n",
                "3",
                "--grid-size",
                "256",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["config"]["kind"] == "criteria"


    @pytest.mark.parametrize(
        "argv, unused",
        [
            pytest.param(
                ["gen", "--generator", "frostman_example", "--n", "8"],
                [*_UNUSED_BY_ALL, "blaschke_lab.interpolation"],
                id="gen",
            ),
            pytest.param(
                ["check", "--generator", "frostman_example", "--n", "8", "--grid-size", "256"],
                [*_UNUSED_BY_ALL, "blaschke_lab.interpolation"],
                id="check",
            ),
            pytest.param(
                ["run", "criteria.json"],
                [*_UNUSED_BY_ALL, "blaschke_lab.interpolation"],
                id="run-criteria",
            ),
            pytest.param(
                ["union", "--sequence", "a.json", "--sequence-b", "b.json", "--grid-size", "256"],
                _UNUSED_BY_ALL,
                id="union",
            ),
            pytest.param(
                ["nearby", "--generator", "radial_sequence", "--n", "4", "--seed", "3", "--grid-size", "256"],
                _UNUSED_BY_ALL,
                id="nearby",
            ),
            pytest.param(
                ["interpolate", "--generator", "radial_sequence", "--n", "5", "--fill", "1,0.5", "--grid-size", "256"],
                _UNUSED_BY_ALL,
                id="interpolate",
            ),
            pytest.param(
                ["perturb", "--generator", "frostman_example", "--n", "8", "--radius", "0.3", "--trials", "3",
                 "--grid-size", "256"],
                [*_UNUSED_BY_ALL, "blaschke_lab.interpolation"],
                id="perturb",
            ),
            pytest.param(
                ["shift", "--generator", "frostman_example", "--n", "8", "--point", "0.3,0.1", "--grid-size", "256"],
                _UNUSED_BY_ALL,
                id="shift",
            ),
        ],
    )
    def test_commands_load_only_what_they_run(self, argv, unused, tmp_path):
        # Each unused module costs start-up time in every run: numpy.ma about
        # 15 ms (np.unique is one way to pull it in), numpy.random with the
        # secrets and OpenSSL (_hashlib) modules it loads about 10 ms and
        # 6.2 MiB of RSS, interpolation its compile time.
        write_sequence_file(tmp_path / "a.json", ZeroSequence([0.2, 0.5j]))
        write_sequence_file(tmp_path / "b.json", ZeroSequence([-0.3, -0.4j]))
        criteria = {"kind": "criteria", "inputs": {"sequence": {"generator": "radial_sequence", "params": {"N": 6}}},
                    "grid": {"base_count": 256}, "N_schedule": [3, 6]}
        (tmp_path / "criteria.json").write_text(json.dumps(criteria), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(blaschke_lab.__file__)))
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + ([inherited] if inherited else [])))
        code = (
            "import json, sys; from blaschke_lab import cli; rc = cli.main(sys.argv[2:]); "
            "print(json.dumps(sorted(set(json.loads(sys.argv[1])) & set(sys.modules))), file=sys.stderr); "
            "sys.exit(rc)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(unused), *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stderr.splitlines()[-1]) == []


class TestDeterminism:
    def run_twice(self, argv_template, tmp_path):
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.json"
            rc = cli.main(argv_template + ["--out", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        return outputs

    def test_check_byte_identical(self, tmp_path):
        first, second = self.run_twice(
            ["check", "--generator", "frostman_example", "--n", "8", "--grid-size", "256"],
            tmp_path,
        )
        assert first == second

    def test_perturb_byte_identical_for_fixed_seed(self, tmp_path):
        argv = [
            "perturb",
            "--generator",
            "frostman_example",
            "--n",
            "8",
            "--radius",
            "0.05",
            "--trials",
            "6",
            "--seed",
            "7",
            "--grid-size",
            "256",
        ]
        first, second = self.run_twice(argv, tmp_path)
        assert first == second

    def test_perturb_seed_changes_output(self, tmp_path):
        base = [
            "perturb",
            "--generator",
            "frostman_example",
            "--n",
            "8",
            "--radius",
            "0.05",
            "--trials",
            "4",
            "--grid-size",
            "256",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(base + ["--seed", "1", "--out", str(out_a)]) == 0
        assert cli.main(base + ["--seed", "2", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_perturb_reports_on_every_trial_in_one_batch(self, tmp_path, monkeypatch):
        argv = ["perturb", "--generator", "frostman_example", "--n", "8", "--radius", "0.05",
                "--trials", "7", "--seed", "5", "--grid-size", "256"]
        batches = []
        batched = cli.crit.perturbation_reports
        monkeypatch.setattr(
            cli.crit, "perturbation_reports", lambda pairs, *a: batches.append(len(pairs)) or batched(pairs, *a)
        )
        reports = []
        # perfbench still sets BLASCHKE_LAB_THREADS, so the run must ignore it
        for threads in (None, "1", "many"):
            batches.clear()
            if threads is None:
                monkeypatch.delenv("BLASCHKE_LAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("BLASCHKE_LAB_THREADS", threads)
            out = tmp_path / f"threads_{threads}.json"
            assert cli.main(argv + ["--out", str(out)]) == 0
            assert batches == [7]
            reports.append(out.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--generator", "frostman_example", "--n", "12", "--schedule", "6,12"],
        ["check", "--sequence", None, "--schedule", "2,4"],
        ["perturb", "--generator", "frostman_example", "--n", "8", "--radius", "0.05", "--trials", "3"],
        ["perturb", "--sequence", None, "--radius", "0.05", "--trials", "3"],
    ],
    ids=["check-generator", "check-file", "perturb-generator", "perturb-file"],
)
def test_check_and_perturb_build_no_disk_point(tmp_path, monkeypatch, argv):
    path = tmp_path / "seq.json"
    write_sequence_file(path, ZeroSequence([0.1, -0.3 + 0.2j, 0.5j, 0.7 - 0.1j]))
    built = []
    validate = DiskPoint.__post_init__
    monkeypatch.setattr(DiskPoint, "__post_init__", lambda self: built.append(self) or validate(self))
    argv = [str(path) if arg is None else arg for arg in argv]
    assert cli.main(argv + ["--grid-size", "256", "--out", str(tmp_path / "report.json")]) == 0
    assert built == []


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"kind": "criteria", "inputs": {}, "bogus_key": 1}),
            encoding="utf-8",
        )
        assert cli.main(["run", str(config_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_sequence_source_is_two(self, capsys):
        assert cli.main(["check", "--schedule", "3"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_schedule_is_two(self, capsys):
        rc = cli.main(
            ["check", "--generator", "radial_sequence", "--n", "4", "--schedule", "3;4"]
        )
        assert rc == 2
        capsys.readouterr()

    def test_numeric_error_is_three(self, capsys):
        rc = cli.main(
            [
                "shift",
                "--generator",
                "radial_sequence",
                "--n",
                "3",
                "--point",
                "2,0",
                "--grid-size",
                "256",
            ]
        )
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err

    def test_missing_file_is_four(self, tmp_path, capsys):
        rc = cli.main(["check", "--sequence", str(tmp_path / "absent.json"), "--schedule", "2"])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_schedule_beyond_stored_points_is_two(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        write_sequence_file(path, ZeroSequence([DiskPoint(0.1, 0.0), DiskPoint(0.5, 0.0)]))
        rc = cli.main(["check", "--sequence", str(path), "--schedule", "5"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "config, sequence_file, command",
        [
            malformed("fill-too-short", kind_config("interpolate", targets={"fill": [1]})),
            malformed(
                "value-pair-too-short",
                kind_config("interpolate", targets={"values": [[1, 0], [2], [3, 0]]}),
            ),
            malformed("values-not-a-list", kind_config("interpolate", targets={"values": 5})),
            malformed("points-not-a-list", sequence_file={"points": 5}),
            malformed(
                "generator-N-not-a-number",
                kind_config("interpolate", {"generator": "radial_sequence", "params": {"N": "x"}}),
            ),
            malformed("max_iter-not-a-number", kind_config("nearby", max_iter="many")),
            malformed("max_iter-zero", kind_config("nearby", max_iter=0)),
            malformed("max_iter-zero-flag", command=["nearby", "--max-iter", "0"]),
            malformed("tol-negative", {**kind_config("nearby"), "tolerances": {"tol": -1}}),
            malformed("tol-negative-flag", command=["nearby", "--tol", "-1"]),
            malformed("min_sep-negative", kind_config("perturb", radius=0.1, min_sep=-1)),
            malformed("min_sep-negative-flag", command=["perturb", "--radius", "0.1", "--min-sep", "-1"]),
            malformed("radius-not-a-number", kind_config("perturb", radius="big")),
            malformed("base_count-not-a-number", criteria_config(grid={"base_count": "big"})),
            malformed("seed-not-a-number", criteria_config(seed="s")),
            malformed("seed-negative", {**kind_config("perturb", radius=0.1, trials=2), "seed": -1}),
            malformed("seed-negative-flag", command=["nearby", "--seed", "-1"]),
            malformed("schedule-entry-not-a-number", criteria_config(N_schedule=["x"])),
            malformed("point-re-not-a-number", kind_config("shift", point={"re": "a", "im": 0})),
            malformed("fill-a-string", kind_config("interpolate", targets={"fill": "ab"})),
            malformed("sequence-re-run", sequence_file={"points": [{"re": "abc", "im": 0}]}),
            malformed(
                "sequence-re-check",
                sequence_file={"points": [{"re": "abc", "im": 0}]},
                command="check",
            ),
            malformed(
                "meta-not-a-mapping",
                sequence_file={"points": [{"re": 0.1, "im": 0}], "meta": 5},
                command="check",
            ),
            malformed("schedule-not-a-list", criteria_config(N_schedule=5)),
            malformed("min_sep-null", kind_config("perturb", radius=0.1, min_sep=None)),
            malformed("schedule-entry-fractional", criteria_config(N_schedule=[2.5])),
            malformed("path-not-a-string", kind_config("criteria", {"path": 5})),
            malformed("config-not-a-mapping", ["not", "a", "mapping"]),
        ],
    )
    def test_malformed_input_is_two(self, tmp_path, capsys, config, sequence_file, command):
        assert cli.main(malformed_argv(tmp_path, config, sequence_file, command)) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag", [("interpolate", "--targets-file"), ("union", "--targets-file-b")]
    )
    def test_target_file_one_value_short_is_two(self, tmp_path, capsys, command, flag):
        path_a, path_b = write_two_sequences(tmp_path)
        targets = write_json(tmp_path / "targets.json", {"values": [[1.0, 0.0]]})
        sequences = {"interpolate": ["--sequence", path_b], "union": ["--sequence", path_a, "--sequence-b", path_b]}
        assert cli.main([command, *sequences[command], flag, targets, "--grid-size", "256"]) == 2
        assert "config error: target vector has 1 entries for 2 points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["nearby", "--sequence", "empty.json"], "lebesgue constant requires at least one zero",
                         id="nearby"),
            pytest.param(["union", "--sequence", "empty.json", "--sequence-b", "b.json"],
                         "both products need at least one zero", id="union-first"),
            pytest.param(["union", "--sequence", "a.json", "--sequence-b", "empty.json"],
                         "both products need at least one zero", id="union-second"),
            pytest.param(["shift", "--sequence", "empty.json", "--point", "0.1,0"],
                         "cannot shift a degree-zero product", id="shift"),
        ],
    )
    def test_empty_sequence_is_three(self, tmp_path, monkeypatch, capsys, argv, message):
        write_two_sequences(tmp_path)
        write_json(tmp_path / "empty.json", {"points": []})
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv + ["--grid-size", "256"]) == 3
        assert f"numeric error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["shift", "--generator", "radial_sequence", "--q", "2", "--point", "0.1,0"],
                id="q-outside-unit-interval",
            ),
            pytest.param(
                ["perturb", "--generator", "frostman_example", "--n", "6", "--radius", "1.5"],
                id="radius-outside-unit-interval",
            ),
            pytest.param(["check", "--generator", "frostman_example", "--n", "0"], id="n-zero"),
        ],
    )
    def test_domain_error_is_three(self, capsys, argv):
        assert cli.main(argv + ["--grid-size", "256"]) == 3
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("run", "--seed", "5"),
            ("run", "--grid-size", "9999"),
            ("run", "--tol", "3"),
            ("gen", "--seed", "5"),
            ("gen", "--grid-size", "256"),
            ("gen", "--format", "csv"),
            ("gen", "--tol", "1e-8"),
        ],
    )
    def test_ignored_flags_are_rejected(self, tmp_path, capsys, command, flag, value):
        if command == "run":
            argv = malformed_argv(tmp_path)
        else:
            argv = ["gen", "--generator", "frostman_example", "--n", "3"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + [flag, value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_shift_example():
    argv = ["shift", "--generator", "frostman_example", "--n", "20", "--point", "0.3,0.1"]
    assert cli.main(argv) == 0


def test_unverified_shift_roots_exit_three(capsys):
    # frostman_example n = 40 puts roots where |B'| ~ 1/(1 - |z|): 10 of 40 miss 1e-8.
    argv = ["shift", "--generator", "frostman_example", "--n", "40", "--point", "0.3,0.1"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "failed verification" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("schedule", [["--schedule", "2,3,5"], []], ids=["schedule", "whole"])
def test_check_reads_its_sequence_file_once(tmp_path, monkeypatch, capsys, schedule):
    path = tmp_path / "seq.json"
    write_sequence_file(path, ZeroSequence([DiskPoint(0.1 * k, 0.05 * k) for k in range(1, 6)]))
    reads = []
    real = cli.load_sequence_file
    monkeypatch.setattr(cli, "load_sequence_file", lambda p: reads.append(p) or real(p))
    argv = ["check", "--sequence", str(path), *schedule, "--grid-size", "256"]
    assert cli.main(argv) == 0
    assert len(reads) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["N_schedule"] == ([2, 3, 5] if schedule else [5])


def test_check_echoes_the_generated_length(tmp_path):
    # the schedule sets how many points the generator makes, so the echo's params.N is its largest entry
    out = tmp_path / "report.json"
    argv = ["check", "--generator", "frostman_example", "--n", "5", "--schedule", "6,30", "--grid-size", "256"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = out.read_bytes()
    config = json.loads(report)["config"]
    assert config["inputs"]["sequence"]["params"]["N"] == max(config["N_schedule"]) == 30
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["run", str(tmp_path / "config.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == report


def equivalent_runs(seq_a: str, seq_b: str, values: str) -> dict:
    """kind -> (subcommand argv, the config that means the same, defaults left out)."""
    radial4 = {"generator": "radial_sequence", "params": {"q": 0.3, "N": 4}}
    return {
        "criteria": (
            ["check", "--sequence", seq_a, "--schedule", "2,3"],
            {"inputs": {"sequence": {"path": seq_a}}, "N_schedule": [2, 3]},
        ),
        "interpolate": (
            ["interpolate", "--generator", "radial_sequence", "--n", "4", "--q", "0.3",
             "--fill", "1,0.5"],
            {"inputs": {"sequence": radial4, "targets": {"fill": [1, 0.5]}}},
        ),
        "union": (
            ["union", "--sequence", seq_a, "--sequence-b", seq_b, "--targets-file-b", values],
            {
                "inputs": {
                    "sequence": {"path": seq_a},
                    "sequence_b": {"path": seq_b},
                    "targets_b": {"values": [[1, 0], [0, 1]]},
                }
            },
        ),
        "nearby": (
            ["nearby", "--generator", "radial_sequence", "--n", "4", "--q", "0.3", "--seed", "3",
             "--radius-scale", "0.5", "--max-iter", "40", "--tol", "1e-9"],
            {
                "inputs": {"sequence": radial4, "radius_scale": 0.5, "max_iter": 40},
                "seed": 3,
                "tolerances": {"tol": 1e-9},
            },
        ),
        "perturb": (
            ["perturb", "--generator", "frostman_example", "--n", "6", "--radius", "0.05",
             "--trials", "3", "--min-sep", "0.001", "--seed", "11"],
            {
                "inputs": {
                    "sequence": {"generator": "frostman_example", "params": {"N": 6}},
                    "radius": 0.05,
                    "trials": 3,
                    "min_sep": 0.001,
                },
                "seed": 11,
            },
        ),
        "shift": (
            ["shift", "--sequence", seq_a, "--point", "0.1,-0.2"],
            {"inputs": {"sequence": {"path": seq_a}, "point": {"re": 0.1, "im": -0.2}}},
        ),
    }


class TestFlagsMatchConfigKeys:
    """Each subcommand writes the same report as run on the equivalent config."""

    @pytest.mark.parametrize("kind", cli.KINDS)
    def test_same_report(self, tmp_path, kind):
        seq_a = tmp_path / "a.json"
        seq_b = tmp_path / "b.json"
        write_sequence_file(
            seq_a, ZeroSequence([DiskPoint(0.1, 0.0), DiskPoint(-0.3, 0.2), DiskPoint(0.2, 0.6)])
        )
        write_sequence_file(seq_b, ZeroSequence([DiskPoint(0.5, 0.0), DiskPoint(0.0, -0.4)]))
        values = write_json(tmp_path / "values.json", {"values": [[1, 0], [0, 1]]})
        argv, config = equivalent_runs(str(seq_a), str(seq_b), values)[kind]

        from_flags = tmp_path / "flags.json"
        assert cli.main(argv + ["--grid-size", "256", "--out", str(from_flags)]) == 0
        config_path = write_json(
            tmp_path / "config.json", {"kind": kind, "grid": {"base_count": 256}, **config}
        )
        from_config = tmp_path / "run.json"
        assert cli.main(["run", config_path, "--out", str(from_config)]) == 0
        assert from_flags.read_bytes() == from_config.read_bytes()


FUZZ_POINTS = [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.75}, {"re": -0.6, "im": -0.3}]
FUZZ_POINTS_B = [{"re": 0.1, "im": 0.4}, {"re": -0.2, "im": -0.1}]
FUZZ_GRID = {"base_count": 256, "refinement_rounds": 0}


def fuzz_configs(seq_a: str, seq_b: str) -> list:
    """One small valid config per kind: N <= 4, base_count 256, no refinement, trials <= 2."""
    radial3 = {"generator": "radial_sequence", "params": {"q": 0.5, "N": 3, "arg": 0.2}}
    frostman3 = {"generator": "frostman_example", "params": {"N": 3}}
    inputs = {
        "criteria": {"sequence": {"path": seq_a}},
        "interpolate": {"sequence": radial3, "targets": {"values": [[1, 0], [0, 1], [0.5, 0.5]]}},
        "union": {
            "sequence": {"path": seq_a},
            "sequence_b": {"path": seq_b},
            "targets": {"fill": [1, 0]},
            "targets_b": {"values": [[0, 1], [1, 1]]},
        },
        "nearby": {
            "sequence": frostman3,
            "targets": {"fill": [1, 0]},
            "radius_scale": 0.5,
            "max_iter": 30,
            "min_sep": 0.01,
        },
        "perturb": {"sequence": {"path": seq_a}, "radius": 0.05, "trials": 2},
        "shift": {"sequence": {"path": seq_a}, "point": {"re": 0.1, "im": 0.0}},
    }
    common = {"grid": FUZZ_GRID, "seed": 1, "N_schedule": [2, 3], "tolerances": {"tol": 1e-8}}
    return [{"kind": kind, "inputs": kind_inputs, **common} for kind, kind_inputs in inputs.items()]


def json_paths(node, prefix=()):
    """Every location in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


# Wrong-typed or wrong-shaped replacements; none can parse as a large number.
WRONG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(-1.5, 1.5),
    st.text(alphabet="xyz ,", max_size=4),
    st.lists(st.integers(-1, 1), max_size=3),
    st.dictionaries(st.sampled_from(["re", "im", "x"]), st.integers(-1, 1), max_size=2),
)


@st.composite
def mutated(draw, document):
    """document with one mutation: a replaced value, a dropped or added key, or a list resized."""
    document = json.loads(json.dumps(document))
    path = draw(st.sampled_from(list(json_paths(document))))
    parent, key = None, None
    target = document
    for step in path:
        parent, key, target = target, step, target[step]
    options = ["replace"]
    if isinstance(target, dict):
        options += ["drop", "add"]
    if isinstance(target, list) and target:
        options += ["shorten", "lengthen"]
    action = draw(st.sampled_from(options))
    if action == "replace":
        value = draw(WRONG_VALUES)
        if parent is None:
            return value
        parent[key] = value
    elif action == "drop":
        if target:
            del target[draw(st.sampled_from(sorted(target)))]
    elif action == "add":
        target["unexpected"] = draw(WRONG_VALUES)
    elif action == "shorten":
        target.pop()
    else:
        target.append(target[-1])
    return document


class TestConfigFuzz:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    def write_inputs(self, workdir, config, sequence) -> str:
        (workdir / "a.json").write_text(json.dumps(sequence), encoding="utf-8")
        (workdir / "b.json").write_text(json.dumps({"points": FUZZ_POINTS_B}), encoding="utf-8")
        return write_json(workdir / "config.json", config)

    def test_unmutated_configs_run(self, workdir):
        for config in fuzz_configs(str(workdir / "a.json"), str(workdir / "b.json")):
            config_path = self.write_inputs(workdir, config, {"points": FUZZ_POINTS})
            assert cli.main(["run", config_path, "--out", str(workdir / "report.json")]) == 0

    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(data=st.data())
    def test_exit_code_is_documented(self, workdir, data):
        """One mutation of a valid config or sequence file exits 0, 2, 3 or 4 and never raises."""
        configs = fuzz_configs(str(workdir / "a.json"), str(workdir / "b.json"))
        config = data.draw(st.sampled_from(configs))
        sequence = {"points": FUZZ_POINTS, "meta": {"name": "fuzz"}}
        if "path" in config["inputs"]["sequence"] and data.draw(st.booleans()):
            sequence = data.draw(mutated(sequence))
        else:
            config = data.draw(mutated(config))
        config_path = self.write_inputs(workdir, config, sequence)
        assert cli.main(["run", config_path, "--out", str(workdir / "report.json")]) in {0, 2, 3, 4}
