"""Tests for the scenario-file front end: validation, runs, and output files."""

import concurrent.futures
import contextlib
import copy
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import quadpend.cli as cli
from quadpend.cli import (EXIT_ABORT, EXIT_OK, EXIT_VALIDATION, EXIT_WRITE,
                          load_scenarios, main, scenario_schema,
                          shipped_scenario_path, shipped_scenarios)
from quadpend.controllers import TrackingGains
from quadpend.harness import CONTROLLERS, SERIES, NoiseSpec, Scenario
from quadpend.trajectories import TRAJECTORY_KINDS

HOVER = """\
name: hover-test
controller: fbl-regulator
duration: 0.05
dt: 0.001
trajectory:
  kind: set-point
  setpoint: [0.0, 0.0, -2.0]
initial:
  position: [0.0, 0.0, -2.0]
"""

PEND = """\
name: pend-test
controller: pend-xi
duration: 0.05
dt: 0.001
pendulum:
  half_length: 0.5
trajectory:
  kind: set-point
  setpoint: [0.0, 0.0, -2.0]
initial:
  position: [0.0, 0.0, -2.0]
  pendulum: [0.02, 0.0, 0.0, 0.0]
"""


# The CSV header without a pendulum, as the first release wrote it.
HEADER = [
    "t", "p_X", "p_Y", "p_Z", "v_X", "v_Y", "v_Z", "phi", "theta", "psi",
    "w_x", "w_y", "w_z", "a", "b", "a_dot", "b_dot",
    "u1", "u2", "u3", "u4", "f_z", "tau_x", "tau_y", "tau_z",
    "phi_d", "theta_d", "psi_d", "p_Xd", "p_Yd", "p_Zd",
    "clamped", "qp_relaxed", "qp_fault",
]
# With a pendulum the reference offsets come just before the three flags.
PEND_HEADER = HEADER[:-3] + ["a_d", "b_d"] + HEADER[-3:]


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_shipped_scenarios_all_validate(self, capsys):
        names = shipped_scenarios()
        assert len(names) == 8
        for name in names:
            assert main(["validate", name]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok" in out

    def test_unknown_key_reports_name_and_line(self, tmp_path, capsys):
        text = HOVER + "thrust_limit: 3.0\n"
        rc = main(["validate", write(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "thrust_limit" in err
        assert f"line {text.splitlines().index('thrust_limit: 3.0') + 1}" in err

    def test_unknown_nested_key(self, tmp_path, capsys):
        text = HOVER.replace("  kind: set-point", "  kind: set-point\n  speed: 2.0")
        rc = main(["validate", write(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "trajectory.speed" in err
        assert f"line {text.splitlines().index('  speed: 2.0') + 1}" in err
        # The line is looked up in the key's own section, not at the first
        # "kind:" of the file (trajectory.kind).
        text = HOVER + "  kind: 3\n"
        rc = main(["validate", write(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert f"'initial.kind' (line {len(text.splitlines())})" in err

    @pytest.mark.parametrize("section", [
        "vehicle: {mass: 1.0, bogus: 2}\n", 'vehicle:\n  "bogus": 2\n'],
        ids=["flow-style", "quoted"])
    def test_unknown_key_line_in_any_yaml_style(self, tmp_path, capsys,
                                                section):
        text = HOVER + section
        rc = main(["validate", write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                    if "bogus" in ln)
        assert f"'vehicle.bogus' (line {line})" in capsys.readouterr().err

    @pytest.mark.parametrize("text, sets, message", [
        (HOVER + "vehicle: 3\n", [], "key 'vehicle' must be a mapping"),
        (HOVER + "vehicle: [1, 2\n", [], "cannot parse"),
        ("- 1\n- 2\n", [], "document must be a mapping"),
        (HOVER, ["--set", "gains.kp"], "--set expects key=value"),
        (HOVER + "vehicle:\n  inertia: [0.0, 0.01, 0.02]\n", [],
         "inertia values must be positive"),
        (PEND.replace("half_length: 0.5", "half_length: 0.0"), [],
         "pendulum half-length must be positive")],
        ids=["section-not-a-mapping", "unclosed-list", "document-a-list",
             "set-without-value", "zero-inertia", "zero-half-length"])
    def test_malformed_input_rejected(self, tmp_path, capsys, text, sets,
                                      message):
        rc = main(["validate", write(tmp_path, text), *sets])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert message in err
        assert err.startswith("error: case.scn: ")
        assert err.count("case.scn") == 1
        assert "Traceback" not in err

    def test_bad_value_rejected(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, HOVER.replace(
            "kind: set-point", "kind: zigzag"))])
        assert rc == EXIT_VALIDATION
        assert "zigzag" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "no-such.scn"]) == EXIT_VALIDATION
        # A path that exists but is not a text file.
        (tmp_path / "dir.scn").mkdir()
        (tmp_path / "binary.scn").write_bytes(b"\xff\xfe\x00")
        for name in ("dir.scn", "binary.scn"):
            assert main(["validate", str(tmp_path / name)]) == EXIT_VALIDATION
            assert f"{name}: cannot read" in capsys.readouterr().err

    def test_null_initial_pendulum_rejected_like_position(self, tmp_path,
                                                          capsys):
        errs = []
        for key in ("position", "pendulum"):
            text = "\n".join(
                f"  {key}: null" if line.startswith(f"  {key}:") else line
                for line in PEND.splitlines())
            rc = main(["validate", write(tmp_path, text)])
            assert rc == EXIT_VALIDATION
            errs.append(capsys.readouterr().err)
        assert "initial.position must be a number, got None" in errs[0]
        assert errs[1] == errs[0].replace("position", "pendulum")

    def test_initial_pendulum_without_pendulum_rejected(self, tmp_path,
                                                        capsys):
        text = ("controller: fbl-tracker\n"
                "initial: {pendulum: [0.3, 0.0, 0.0, 0.0]}\n")
        assert main(["validate", write(tmp_path, text)]) == EXIT_VALIDATION
        assert "initial.pendulum" in capsys.readouterr().err

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize takes a quarter second to import and only the QP's
        # phase-1 LP needs it.
        src = str(Path(cli.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import quadpend.cli; "
                "sys.exit('scipy.optimize' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_loading_twice_gives_equal_scenarios(self):
        path = shipped_scenario_path("fig6-pend-balance.scn")
        assert load_scenarios(path) == load_scenarios(path)

    def test_bad_override_key(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, HOVER),
                   "--set", "gains.mu=1.0"])
        assert rc == EXIT_VALIDATION
        assert "gains.mu" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "gains.kp=abc", "vehicle.mass=abc", "initial.position=abc",
        "duration=.nan", "gains.kp=.nan", "dt=.inf", "vehicle.u_max=[1, .inf]",
        "noise.enabled=maybe", "seed=1.5", "name=[a]", "gains.kp=["])
    def test_unconvertible_or_nonfinite_value_rejected(self, tmp_path, capsys,
                                                       setting):
        rc = main(["run", write(tmp_path, HOVER), "--out", str(tmp_path / "o"),
                   "--set", setting])
        assert rc == EXIT_VALIDATION
        assert setting.partition("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        HOVER.replace("name: hover-test", "name: ../escaped"),
        HOVER.replace("name: hover-test", "name: a\\b"),
        HOVER + "batch:\n  - name: ../escaped\n    set: {gains.kp: 5.0}\n",
        HOVER + "batch:\n  - name: x/y\n    set: {gains.kp: 5.0}\n"],
        ids=["parent-dir", "backslash", "batch-parent-dir", "batch-slash"])
    def test_path_like_name_rejected(self, tmp_path, capsys, text):
        out = tmp_path / "sub" / "o"
        rc = main(["run", write(tmp_path, text), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "name" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("text, key", [
        (HOVER.replace("dt: 0.001", "dt: 1.0e-300").replace(
            "duration: 0.05", "duration: 1.0e+300"), "duration / dt"),
        (HOVER.replace("name: hover-test", 'name: "a\\0b"'), "name"),
        (HOVER.replace("kind: set-point", "kind: takeoff-then-circle\n"
                       "  transition_time: 1.0e-320"), "transition_time"),
        (HOVER.replace("kind: set-point", "kind: takeoff-then-circle\n"
                       "  transition_time: 0.0\n  blend_window: 1.0e-320"),
         "blend_window"),
        (HOVER + "vehicle:\n  rotor_diameter: 1.0e+154\n"
         "  u_max: [1.0e+300, 1.0e+300, 1.0e+300, 1.0e+300]\n",
         "rotor_diameter"),
        (PEND.replace("half_length: 0.5", "half_length: 1.0e+154"),
         "half_length"),
        (PEND.replace("half_length: 0.5", "half_length: 1.0e-107"),
         "half_length"),
        (HOVER + "vehicle:\n  torque_coeff: 0.0\n", "rotor mixer"),
        (HOVER.replace("dt: 0.001", "dt: 1.0e-170").replace(
            "duration: 0.05", "duration: 1.0e-168"), "dt"),
        (HOVER.replace("name: hover-test", 'name: "a\\ud800b"'), "name"),
        (HOVER.replace("name: hover-test", "name: " + "x" * 250), "name")],
        ids=["steps-overflow", "nul-in-name", "transition-time-underflow",
             "blend-window-underflow", "rotor-diameter-power-overflow",
             "half-length-cube-overflow", "half-length-power-underflow",
             "zero-torque-coeff", "dt-square-underflow", "surrogate-in-name",
             "name-too-long-for-a-file"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_value_that_broke_a_run_rejected(self, tmp_path, capsys, text,
                                             key, command):
        out = tmp_path / "o"
        argv = [command, write(tmp_path, text)]
        assert main(argv + (["--out", str(out)] if command == "run" else [])
                    ) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_run_names_rejected(self, tmp_path, capsys):
        text = HOVER + """\
batch:
  - name: a
    set: {gains.kp: 5.0}
  - name: a
    set: {gains.kp: 6.0}
"""
        rc = main(["validate", write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        assert "hover-test-a" in capsys.readouterr().err


class TestRun:
    def test_run_writes_csv_and_metrics(self, tmp_path, capsys):
        rc = main(["run", write(tmp_path, HOVER), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        series = tmp_path / "o" / "hover-test.csv"
        metrics = tmp_path / "o" / "hover-test.metrics.json"
        assert series.exists() and metrics.exists()
        with open(series) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == HEADER
        assert len(rows) == 51
        # No pendulum: the four pendulum state columns hold the empty-string
        # sentinel.
        i_a = header.index("a")
        assert all(r[i_a] == "" for r in rows)
        m = json.loads(metrics.read_text())
        assert m["aborted"] is False
        assert m["rms_err_z"] == pytest.approx(0.0, abs=1e-12)

    def test_floats_round_trip(self, tmp_path):
        main(["run", write(tmp_path, HOVER), "--out", str(tmp_path / "o")])
        with open(tmp_path / "o" / "hover-test.csv") as fh:
            reader = csv.DictReader(fh)
            row = next(reader)
        # repr() emission: parsing back gives the exact binary double.
        assert float(row["p_Z"]) == -2.0
        assert float(row["f_z"]) == pytest.approx(9.81, abs=1e-12)

    def test_pendulum_columns_present(self, tmp_path):
        main(["run", write(tmp_path, PEND), "--out", str(tmp_path / "o")])
        with open(tmp_path / "o" / "pend-test.csv") as fh:
            header = next(csv.reader(fh))
        assert header == PEND_HEADER

    def test_json_format(self, tmp_path):
        main(["run", write(tmp_path, HOVER), "--out", str(tmp_path / "o"),
              "--format", "json"])
        payload = json.loads((tmp_path / "o" / "hover-test.json").read_text())
        assert payload["scenario"] == "hover-test"
        assert len(payload["t"]) == 51
        assert payload["pend"] is None

    def test_qp_that_does_not_converge_aborts(self, tmp_path, capsys):
        # Noise seed 5021 drives fig5b into a relaxed CLF-QP that exhausts
        # its iterations at t = 2.528 s.
        out = tmp_path / "o"
        rc = main(["run", "fig5b-noise-clfqp.scn", "--seed", "5021",
                   "--out", str(out)])
        assert rc == EXIT_ABORT
        assert "QP did not converge" in capsys.readouterr().err
        m = json.loads((out / "fig5b-noise-clfqp.metrics.json").read_text())
        assert m["aborted"] is True
        assert m["abort_time"] == pytest.approx(2.528)
        assert "QP did not converge" in m["abort_reason"]
        with open(out / "fig5b-noise-clfqp.csv") as fh:
            assert len(list(csv.reader(fh))) == 1 + 1264  # header + rows

    def test_abort_exit_code_and_partial_log(self, tmp_path, capsys):
        text = PEND.replace("pendulum: [0.02, 0.0, 0.0, 0.0]",
                            "pendulum: [0.45, 0.0, 3.0, 0.0]").replace(
            "duration: 0.05", "duration: 1.0")
        rc = main(["run", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert rc == EXIT_ABORT
        assert "abort" in capsys.readouterr().err
        m = json.loads((tmp_path / "o" / "pend-test.metrics.json").read_text())
        assert m["aborted"] is True
        assert "abort_reason" in m
        with open(tmp_path / "o" / "pend-test.csv") as fh:
            rows = list(csv.reader(fh))
        assert 1 < len(rows) < 1002

    @pytest.mark.parametrize("text, setting, fmt", [
        (HOVER, "initial.attitude=[0, 1.5707963267948966, 0]", "csv"),
        (PEND, "initial.pendulum=[0.6, 0, 0, 0]", "csv"),
        (PEND, "initial.pendulum=[0.6, 0, 0, 0]", "json"),
        (HOVER.replace("fbl-regulator", "clf-qp"),
         "initial.position=[0, 0, -1.0e+200]", "csv")],
        ids=["pitch-pi/2", "pendulum-beyond-L", "pendulum-beyond-L-json",
             "clf-qp-data-overflows"])
    def test_abort_before_first_row(self, tmp_path, capsys, text, setting,
                                    fmt):
        rc = main(["run", write(tmp_path, text), "--out", str(tmp_path / "o"),
                   "--set", setting, "--format", fmt])
        assert rc == EXIT_ABORT
        assert "abort" in capsys.readouterr().err
        name = yaml.safe_load(text)["name"]
        header = PEND_HEADER if text is PEND else HEADER
        series = (tmp_path / "o" / f"{name}.{fmt}").read_text()
        if fmt == "csv":
            assert series == ",".join(header) + "\n"  # the header only
        else:  # no rows: every series is present and empty
            payload = json.loads(series)
            assert payload.pop("scenario") == name
            assert payload.pop("columns") == header
            assert payload == {key: [] for key in SERIES}
        m = json.loads((tmp_path / "o" / f"{name}.metrics.json").read_text())
        assert m["aborted"] is True
        assert m["abort_time"] == 0.0
        assert m["abort_reason"]

    # The 2501-row run writes each JSON series in three chunks of rows.
    @pytest.mark.parametrize("text, n_rows", [
        (HOVER, 51), (PEND, 51),
        (HOVER.replace("duration: 0.05", "duration: 2.5"), 2501)],
        ids=["no-pendulum", "pendulum", "2501-rows"])
    def test_csv_and_json_hold_the_same_values(self, tmp_path, text, n_rows):
        path = write(tmp_path, text + "noise:\n  enabled: true\n")
        for fmt in ("csv", "json"):
            rc = main(["run", path, "--out", str(tmp_path), "--format", fmt])
            assert rc == EXIT_OK
        name = yaml.safe_load(text)["name"]
        with open(tmp_path / f"{name}.csv") as fh:
            header, *rows = csv.reader(fh)
        payload = json.loads((tmp_path / f"{name}.json").read_text())
        assert set(payload) == {"scenario", "columns", *SERIES}
        assert payload["columns"] == header
        by_column = dict(zip(header, zip(*rows)))
        for key, series in SERIES.items():
            values = payload[key]
            for j, col in enumerate(series.columns):
                if values is None:  # no pendulum
                    assert set(by_column.get(col, [""])) == {""}
                    continue
                got = by_column[col]
                want = [v[j] if len(series.columns) > 1 else v
                        for v in values]
                assert len(got) == len(want) == n_rows
                if series.dtype is bool:
                    assert list(got) == [str(v) for v in want]
                    assert {type(v) for v in want} == {int}
                else:  # bit for bit
                    assert [float(c).hex() for c in got] == [
                        float(v).hex() for v in want]
        # The JSON file is json.dumps of the payload, built here from the
        # CSV cells of each series.
        rebuilt = {"scenario": name, "columns": header}
        for key, series in SERIES.items():
            cells = [by_column.get(c, ("",)) for c in series.columns]
            if cells[0][0] == "":  # no pendulum
                rebuilt[key] = None
                continue
            cast = int if series.dtype is bool else float
            rows = [[cast(c) for c in row] for row in zip(*cells)]
            rebuilt[key] = [r[0] for r in rows] if len(cells) == 1 else rows
        # Compared apart from the assert: pytest would diff two long strings.
        same = (tmp_path / f"{name}.json").read_text() == json.dumps(
            rebuilt, sort_keys=True)
        assert same, "the JSON file is not json.dumps of the payload"

    @pytest.mark.parametrize("under", ["", "sub"],
                             ids=["a-file", "under-a-file"])
    def test_unusable_out_exits_before_any_run(self, tmp_path, capsys,
                                               monkeypatch, under):
        def never(sc):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_scenario", never)
        (tmp_path / "o").write_text("")
        out = tmp_path / "o" / under
        rc = main(["run", write(tmp_path, HOVER), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert str(tmp_path / "o") in capsys.readouterr().err

    def test_set_override_applies(self, tmp_path):
        main(["run", write(tmp_path, HOVER), "--out", str(tmp_path / "a")])
        main(["run", write(tmp_path, HOVER), "--out", str(tmp_path / "b"),
              "--set", "initial.position=[0.0, 0.0, -1.9]"])
        row_a = next(csv.DictReader(open(tmp_path / "a" / "hover-test.csv")))
        row_b = next(csv.DictReader(open(tmp_path / "b" / "hover-test.csv")))
        assert float(row_a["p_Z"]) == -2.0
        assert float(row_b["p_Z"]) == -1.9

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        noisy = HOVER + "noise:\n  enabled: true\n"
        path = write(tmp_path, noisy)
        main(["run", path, "--out", str(tmp_path / "a"), "--seed", "3"])
        main(["run", path, "--out", str(tmp_path / "b"), "--seed", "3"])
        a = (tmp_path / "a" / "hover-test.csv").read_bytes()
        b = (tmp_path / "b" / "hover-test.csv").read_bytes()
        assert a == b
        ma = (tmp_path / "a" / "hover-test.metrics.json").read_bytes()
        mb = (tmp_path / "b" / "hover-test.metrics.json").read_bytes()
        assert ma == mb

    def test_different_seed_differs(self, tmp_path):
        noisy = HOVER + "noise:\n  enabled: true\n"
        path = write(tmp_path, noisy)
        main(["run", path, "--out", str(tmp_path / "a"), "--seed", "3"])
        main(["run", path, "--out", str(tmp_path / "b"), "--seed", "4"])
        assert ((tmp_path / "a" / "hover-test.csv").read_bytes()
                != (tmp_path / "b" / "hover-test.csv").read_bytes())


class TestBatch:
    BATCH = HOVER + """\
batch:
  - name: low
    set:
      initial.position: [0.0, 0.0, -1.5]
  - name: high
    set:
      initial.position: [0.0, 0.0, -2.5]
"""

    def test_batch_expansion(self, tmp_path, capsys):
        rc = main(["run", write(tmp_path, self.BATCH),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert (tmp_path / "o" / "hover-test-low.csv").exists()
        assert (tmp_path / "o" / "hover-test-high.csv").exists()

    def test_batch_parallel_matches_serial(self, tmp_path):
        main(["run", write(tmp_path, self.BATCH), "--out", str(tmp_path / "s")])
        main(["run", write(tmp_path, self.BATCH), "--out", str(tmp_path / "p"),
              "--jobs", "2"])
        for name in ("hover-test-low.csv", "hover-test-high.csv"):
            assert ((tmp_path / "s" / name).read_bytes()
                    == (tmp_path / "p" / name).read_bytes())

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "pool"])
    def test_write_error_names_run_and_path(self, tmp_path, capsys, jobs):
        # A directory where one run's series file should go.
        blocked = tmp_path / "o" / "hover-test-low.csv"
        blocked.mkdir(parents=True)
        rc = main(["run", write(tmp_path, self.BATCH),
                   "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert rc == EXIT_WRITE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("hover-test-low: ")
        assert str(blocked) in err[0]
        assert (tmp_path / "o" / "hover-test-high.csv").is_file()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        rc = main(["run", write(tmp_path, self.BATCH),
                   "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert rc == EXIT_VALIDATION
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pool_no_larger_than_the_batch(self, tmp_path, monkeypatch):
        sizes = []

        class SerialPool:  # records its size and maps in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        rc = main(["run", write(tmp_path, self.BATCH),
                   "--out", str(tmp_path / "o"), "--jobs", "500"])
        assert rc == EXIT_OK
        assert sizes == [2]

    def test_malformed_batch_rejected(self, tmp_path, capsys):
        for text in ("batch:\n  - 3\n", "batch: []\n",
                     "batch:\n  - set: {batch: 5}\n"):
            rc = main(["validate", write(tmp_path, HOVER + text)])
            assert rc == EXIT_VALIDATION
        rc = main(["validate", write(tmp_path, HOVER),
                   "--set", "batch=[{set: {gains.kp: 2}}]"])
        assert rc == EXIT_VALIDATION
        rc = main(["validate", write(tmp_path, HOVER + """\
batch:
  - set: {gains.kp: 5.0}
  - set: {1: 2}
""")])
        assert rc == EXIT_VALIDATION
        assert "batch entry 1" in capsys.readouterr().err


class TestListScenarios:
    def test_lists_all_shipped(self, capsys):
        assert main(["list-scenarios"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert len(out) == 8
        assert "fig6-pend-balance.scn" in out


def _leaf_keys():
    keys = []
    for key, sub in scenario_schema().items():
        if isinstance(sub, dict):
            keys += [f"{key}.{k}" for k in sub]
        elif key != "batch":
            keys.append(key)
    return keys


# Every positive number here keeps a run short: at most 0.02 s at dt 1e-4.
# As a duration or dt, 1e300 and 5e-324 give one step or are rejected.
# The valid names steer some draws into other controllers and references.
ADVERSARIAL = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e-4, 0.02,
    1.0e+300, 5.0e-324, "abc", "a\0b", [1.0, 2.0], None, {"x": 1.0},
    "clf-qp", "pend-lqr", "circle"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(_leaf_keys()), ADVERSARIAL,
                       max_size=4))
def test_adversarial_values_end_in_an_exit_code(sets):
    doc = yaml.safe_load(PEND.replace("duration: 0.05", "duration: 0.02"))
    for dotted, value in sets.items():
        section, _, key = dotted.rpartition(".")
        node = doc.setdefault(section, {}) if section else doc
        node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.scn"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["run", str(path), "--out", str(Path(tmp) / "o")])
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_ABORT)


# Floats of either sign from every decade of the float range, zero and
# overflow to infinity included; at the magnitudes where a square, cube or
# fourth power, the powers the model takes, leaves the float range; or NaN.
SIGNED = st.floats(-10.0, 10.0)
FLOATS = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, SIGNED, st.integers(-323, 308)),
    st.builds(lambda m, end, k: m * end ** (1.0 / k), SIGNED,
              st.sampled_from([sys.float_info.max, 5e-324]),
              st.integers(2, 4)),
    st.just(math.nan))


def _typed(like):
    """Values of the type of the default value like; strings are valid names
    or any text a YAML file can hold."""
    if isinstance(like, bool):
        return st.booleans()
    if isinstance(like, int):
        return st.integers()
    if isinstance(like, str):
        return st.sampled_from([*CONTROLLERS, *TRAJECTORY_KINDS]) | st.text(
            st.characters(exclude_categories=()))  # surrogates included
    if isinstance(like, float):
        return FLOATS
    return st.lists(FLOATS, min_size=len(like), max_size=len(like)) | FLOATS


def _typed_sections():
    """Section ("" for the top level) -> {key: _typed strategy}, for every
    key but batch; the top-level key dt draws dt and a duration of 1 to 1000
    steps of it."""
    defaults = Scenario()
    classes = {f.name: f.type for f in fields(Scenario)}
    out = {"": {"dt": st.tuples(FLOATS, st.integers(1, 1000))}}
    for key, sub in scenario_schema().items():
        if isinstance(sub, dict):
            like = classes[key]()
            out[key] = {k: _typed(getattr(like, name))
                        for k, name in sub.items()}
        elif key not in ("duration", "dt", "batch"):
            out[""][key] = _typed(getattr(defaults, sub))
    return out


TYPED = _typed_sections()
PEND_DOC = yaml.safe_load(PEND.replace("duration: 0.05", "duration: 0.002"))


@st.composite
def typed_scenarios(draw):
    """PEND, two steps long, with one key drawn by type from a section drawn
    first, so that a section of one key is drawn as often as one of ten."""
    doc = copy.deepcopy(PEND_DOC)
    section = draw(st.sampled_from(sorted(TYPED)))
    key = draw(st.sampled_from(sorted(TYPED[section])))
    value = draw(TYPED[section][key])
    if (section, key) == ("", "dt"):
        doc["dt"], steps = value
        doc["duration"] = doc["dt"] * steps
    elif section:
        doc.setdefault(section, {})[key] = value
    else:
        doc[key] = value
    return doc


def _main_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(max_examples=700, deadline=None, derandomize=True, database=None)
@given(typed_scenarios())
def test_what_validate_accepts_runs_and_what_it_rejects_run_rejects(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.scn"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        validated = _main_stderr(["validate", str(path)])
        ran = _main_stderr(["run", str(path), "--out", str(Path(tmp) / "o")])
    assert validated[0] in (EXIT_OK, EXIT_VALIDATION)
    if validated[0] == EXIT_OK:
        assert ran[0] in (EXIT_OK, EXIT_ABORT)
    else:
        assert ran == validated


def test_readme_csv_columns_match_series(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### CSV columns\n", 1)[1].split("\n#", 1)[0]
    table = {}  # series -> (CSV columns, without a pendulum)
    for line in section.splitlines():
        if line.startswith("| `"):
            key, cols, absent = (c.strip() for c in line.split("|")[1:-1])
            table[key.strip("`")] = (tuple(cols.strip("`").split()), absent)
    assert list(table) == list(SERIES)
    for key, series in SERIES.items():
        cols, absent = table[key]
        assert cols == series.columns, key
        assert bool(absent) == series.pendulum, key
        assert absent.startswith("empty strings") == series.blank, key
    for text in (HOVER, PEND):
        main(["run", write(tmp_path, text), "--out", str(tmp_path)])
        name = yaml.safe_load(text)["name"]
        with open(tmp_path / f"{name}.csv") as fh:
            header = next(csv.reader(fh))
        assert header == [c for cols, absent in table.values()
                          if text is PEND or not absent.startswith("absent")
                          for c in cols]


def test_readme_scenario_block_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    doc = yaml.safe_load(block)
    lines = block.splitlines()

    def listed(key):
        # The names in the comment of the key's line and of the comment
        # lines that continue it.
        i = next(i for i, line in enumerate(lines)
                 if line.lstrip().startswith(f"{key}:"))
        comment = lines[i].split("#", 1)[1]
        for line in lines[i + 1:]:
            if not line.lstrip().startswith("#"):
                break
            comment += line.split("#", 1)[1]
        return [n.strip() for n in comment.split("|")]

    assert listed("controller") == list(CONTROLLERS)
    assert listed("kind") == list(TRAJECTORY_KINDS)
    schema = scenario_schema()
    assert set(doc) == set(schema)
    for section, keys in schema.items():
        if isinstance(keys, dict):
            assert set(doc[section]) == set(keys), section
    for section, cls in (("gains", TrackingGains), ("noise", NoiseSpec)):
        defaults = cls()
        got = {k: tuple(v) if isinstance(v, list) else v
               for k, v in doc[section].items()}
        assert got == {k: getattr(defaults, f)
                       for k, f in schema[section].items()}, section
