"""The benchmark's workloads and the way one job of a workload is run.

A job is one ``quadpend run`` invocation: a scenario file, a format and
optional ``--seed`` / ``--set`` arguments.  A workload maps the benchmark
seed and a job index to a job, so the same seed always gives the same
inputs and the program sees only those inputs.  Every workload is a closed
loop: one client runs its jobs one after another (``--jobs 1``).
"""

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from spans import ROOT_SPAN

# Seeds of consecutive clfqp-noise jobs are NOISE_STRIDE * seed + index, so
# seed 0 covers noise seeds 0, 1, 2, 3, ... of fig5b-noise-clfqp.
NOISE_STRIDE = 1000
SWEEP_DURATION = 0.2


@dataclass(frozen=True)
class Job:
    scenario: str          # path of the .scn file
    fmt: str = "csv"
    seed: int = None
    sets: tuple = ()       # ((dotted key, value), ...)

    def argv(self, out_dir):
        argv = ["run", self.scenario, "--format", self.fmt, "--out", str(out_dir)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        for key, value in self.sets:
            argv += ["--set", f"{key}={json.dumps(value)}"]
        return argv

    def load(self, cli):
        """The scenarios this job runs, as the CLI builds them."""
        return cli.load_scenarios(Path(self.scenario), overrides=self.sets,
                                  seed=self.seed)

    def to_json(self):
        return {"scenario": self.scenario, "fmt": self.fmt, "seed": self.seed,
                "sets": [list(s) for s in self.sets]}

    @classmethod
    def from_json(cls, doc):
        return cls(doc["scenario"], doc["fmt"], doc["seed"],
                   tuple((k, v) for k, v in doc["sets"]))


def _round(x):
    # Four decimals keep every value free of exponents, which YAML 1.1
    # would read as strings.
    return round(x, 4)


def clfqp_noise_job(seed, i, scenarios, workdir):
    return Job(str(scenarios / "fig5b-noise-clfqp.scn"),
               seed=NOISE_STRIDE * seed + i)


def sweep_document(rng):
    """Batch scenario: one short run of each of the six controllers."""
    def u(lo, hi):
        return _round(rng.uniform(lo, hi))

    def pend_offset():
        r, phase = rng.uniform(0.01, 0.08), rng.uniform(0.0, 2.0 * math.pi)
        return [_round(r * math.cos(phase)), _round(r * math.sin(phase)), 0.0, 0.0]

    circle = {"trajectory.kind": "circle", "trajectory.radius": 1.0,
              "trajectory.rate": 0.5, "trajectory.altitude": -2.0,
              "initial.velocity": [0.0, 0.5, 0.0],
              "initial.position": [_round(1.0 + rng.uniform(-0.2, 0.2)),
                                   u(-0.2, 0.2), _round(-2.0 + rng.uniform(-0.2, 0.2))]}
    pend = {"pendulum.half_length": 0.5, "initial.pendulum": pend_offset()}
    batch = [
        {"name": "regulator", "set": {
            "controller": "fbl-regulator", "gains.q_care": u(0.5, 2.0),
            "initial.position": [u(-0.3, 0.3), u(-0.3, 0.3),
                                 _round(-2.0 + rng.uniform(-0.3, 0.3))]}},
        {"name": "tracker", "set": {
            "controller": "fbl-tracker", **circle,
            "gains.alpha1": u(80.0, 120.0), "gains.alpha2": u(16.0, 24.0),
            "gains.kp": u(3.0, 5.0), "gains.kd": u(3.0, 5.0)}},
        {"name": "clfqp", "set": {
            "controller": "clf-qp", **circle, "gains.q_care": u(50.0, 150.0),
            "gains.kp": u(3.0, 5.0), "gains.kd": u(3.0, 5.0)}},
        {"name": "xi", "set": {
            "controller": "pend-xi", **pend,
            "gains.k1": u(6.0, 10.0), "gains.k2": u(12.0, 20.0)}},
        {"name": "xi-prime", "set": {
            "controller": "pend-xi-prime", **pend,
            "initial.pendulum": pend_offset(),
            "gains.k1": u(6.0, 10.0), "gains.k2": u(12.0, 20.0)}},
        {"name": "lqr", "set": {
            "controller": "pend-lqr", **pend, "initial.pendulum": pend_offset(),
            "gains.r_lqr": [u(50.0, 150.0)] * 2,
            "trajectory.setpoint": [u(-0.5, 0.5), u(-0.5, 0.5), -2.0]}},
    ]
    return {"name": "sweep", "duration": SWEEP_DURATION, "dt": 0.001,
            "trajectory": {"kind": "set-point", "setpoint": [0.0, 0.0, -2.0]},
            "initial": {"position": [0.0, 0.0, -2.0]},
            "batch": batch}


def cli_sweep_job(seed, i, scenarios, workdir):
    path = workdir / f"sweep-{i}.scn"
    if not path.exists():
        doc = sweep_document(random.Random(f"cli-sweep/{seed}/{i}"))
        path.write_text(json.dumps(doc, indent=1) + "\n")  # JSON is YAML
    return Job(str(path), fmt="csv" if i % 2 == 0 else "json")


@dataclass(frozen=True)
class Workload:
    job: object          # (seed, index, scenario dir, work dir) -> Job
    fresh_process: bool  # untraced runs start a new interpreter per job


WORKLOADS = {
    "clfqp-noise": Workload(clfqp_noise_job, False),
    "cli-sweep": Workload(cli_sweep_job, True),
}
# Runs time whole cycles of this many jobs, so cli-sweep times as many CSV
# as JSON jobs; traced runs repeat the first cycle.
CYCLE = 2


def execute(cli, argv, tracer):
    """Run ``quadpend`` in this process under ``tracer``; exit code or error."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return tracer.call(ROOT_SPAN, cli.main, (argv,), {})
        except Exception as exc:  # a traceback is a failed job, not a crash
            return f"{type(exc).__name__}: {exc}"


def job_summary(tracer):
    """Wall, run and emit seconds and steps of one job's spans."""
    totals = tracer.totals()

    def incl(layer):
        return totals.get(layer, (0, 0.0, 0.0))[2]

    return {"wall_s": incl("bench.job"), "run_s": incl("harness.run"),
            "emit_s": incl("cli.emit"), "steps": tracer.counters["harness.steps"]}
