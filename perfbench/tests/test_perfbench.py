"""Tests of the benchmark itself: tracing, checks, inputs and metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadpend.cli as cli
import run as bench
from checks import check_run
from spans import ALL_LAYERS, PER_LAYER, TOP_LEVEL, Tracer, layer_metrics, resolve
from workloads import WORKLOADS, Job, execute, sweep_document

COUNTS = ("harness.steps", "numerics.qp.calls", "numerics.lp.calls",
          "models.deriv.calls")


def short_jobs(workdir):
    """A CLF-QP run that reaches the QP and all six controllers, briefly."""
    sweep = workdir / "sweep.scn"
    sweep.write_text(json.dumps(sweep_document(random.Random(0))))
    return [Job(str(bench.SCENARIOS / "fig5b-noise-clfqp.scn"), seed=0,
                sets=(("duration", 0.6),)),
            Job(str(sweep), fmt="json")]


def run_jobs(jobs, out, targets, repeats=1):
    with Tracer(targets) as tracer:
        rcs = [execute(cli, job.argv(out / f"{r}-{k}"), tracer)
               for r in range(repeats) for k, job in enumerate(jobs)]
    return tracer, rcs


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("passes")
    jobs = short_jobs(tmp)
    plain = run_jobs(jobs, tmp / "plain", TOP_LEVEL)
    traced = run_jobs(jobs, tmp / "traced", ALL_LAYERS)
    twice = run_jobs(jobs, tmp / "twice", ALL_LAYERS, repeats=2)
    return tmp, plain, traced, twice


def test_traced_pass_writes_same_bytes_as_untraced(passes):
    tmp, (_, plain_rcs), (_, traced_rcs), _ = passes
    assert plain_rcs == traced_rcs == [0, 0]
    plain, traced = tree(tmp / "plain"), tree(tmp / "traced")
    assert sorted(plain) == sorted(traced)
    assert any(name.endswith(".csv") for name in plain)
    assert any(name.endswith(".json") and "metrics" not in name for name in plain)
    assert plain == traced


def test_counts_repeat_exactly(passes):
    _, _, (traced, _), (twice, _) = passes
    once = layer_metrics(traced, 1)
    per_cycle = layer_metrics(twice, 2)
    assert once["numerics.qp.calls"] > 0 and once["numerics.lp.calls"] > 0
    assert once["models.deriv.calls"] == 4 * once["numerics.rk4.calls"]
    for key in COUNTS:
        assert once[key] == per_cycle[key], key


def test_self_times_account_for_traced_wall(passes):
    _, _, (traced, _), _ = passes
    assert 0.95 <= layer_metrics(traced, 1)["trace.accounted_ratio"] <= 1.0


def test_every_wrapper_restores_the_original():
    originals = [(resolve(owner), attr) for owner, attr, _ in ALL_LAYERS]
    before = [getattr(obj, attr) for obj, attr in originals]
    with pytest.raises(RuntimeError):
        with Tracer(ALL_LAYERS):
            for (obj, attr), fn in zip(originals, before):
                assert getattr(obj, attr) is not fn
            raise RuntimeError("leave the block early")
    for (obj, attr), fn in zip(originals, before):
        assert getattr(obj, attr) is fn, f"{obj.__name__}.{attr}"


def test_metric_names_match_benchmark_json():
    doc = json.loads((bench.REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
    for name in [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_traced_metrics_cover_every_per_layer_name(passes):
    _, _, (traced, _), _ = passes
    got = set(layer_metrics(traced, 1))
    outside = {"cli.import.s", "trace.wall_s", "trace.untraced_wall_s",
               "trace.overhead_s", "trace.overhead_ratio"}
    assert got | outside == {name for name, _, _ in PER_LAYER}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    def inputs(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        jobs = [WORKLOADS[name].job(seed, i, bench.SCENARIOS, workdir)
                for i in range(3)]
        return [(j.to_json()["seed"], j.to_json()["sets"], j.fmt,
                 Path(j.scenario).read_text()) for j in jobs]

    first = inputs(5, "a")
    assert first == inputs(5, "b")
    assert first != inputs(6, "c")


@pytest.mark.parametrize("column, value, problem", [
    ("u1", "1e9", "rotor command outside"),
    ("p_X", "nan", "non-finite"),
    ("a", "0.6", "pendulum left"),
])
def test_checks_flag_bad_output(tmp_path, column, value, problem):
    job = Job(str(bench.SCENARIOS / "fig7-pend-circle.scn"),
              sets=(("duration", 0.05),))
    with Tracer() as tracer:
        assert execute(cli, job.argv(tmp_path), tracer) == 0
    (sc,) = job.load(cli)
    assert check_run(sc, "csv", tmp_path).problems == []
    path = tmp_path / f"{sc.name}.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    row = lines[10].split(",")
    row[col] = value
    lines[10] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert any(problem in p for p in check_run(sc, "csv", tmp_path).problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clfqp-noise",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "no quadpend sources" in proc.stderr
    assert '"correct"' not in proc.stdout
