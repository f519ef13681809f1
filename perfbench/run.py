"""quadpend benchmark: end-to-end metrics, output checks and a traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload clfqp-noise --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cli-sweep --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py --pin              # one pass over the bundled scenarios
    python3 perfbench/run.py --make-reference   # reference values at the canonical seed

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
jobs with spans around every layer and prints the per-layer metrics.  Both
check every output and end with one JSON line:
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}``.
``attempted`` and ``failed`` count scenario runs; a run fails when it aborts
or fails an output check.  All output goes under ``.bench_out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import REFERENCE_RTOL, check_run, compare_reference, sha256
from spans import ALL_LAYERS, PER_LAYER, Tracer, layer_metrics
from workloads import CYCLE, WORKLOADS, Job, execute, job_summary

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
SCENARIOS = SRC / "quadpend" / "scenarios"
OUT = REPO / ".bench_out"

CANONICAL_SEED = 0
SETUP_SAMPLES = 3     # fresh interpreters timed per run for setup_s
IMPORT_SAMPLES = 3    # fresh interpreters timed per traced run
MIN_JOBS = 4          # timed jobs per run (two cycles), however long they take
CHILD_TIMEOUT = 120
REFERENCE_JOBS = {"clfqp-noise": 16, "cli-sweep": 24}

# End-to-end metrics with a bound in BENCHMARK.json, in the result line.
END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with them but not bounded: one 0.1-0.3 s emission a job swings by
# about 30 % on a shared 2-vCPU host, so its median across seeds spreads by
# more than the largest bound allowed.  cli.emit.s traces the same time.
UNBOUNDED = (("emit_s", "s"),)


def machine():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def child(*args):
    return subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                          cwd=REPO)


def setup_samples(job, n, workdir):
    """``n`` fresh-interpreter timings of import plus ``load_scenarios``."""
    path = workdir / "setup-job.json"
    path.write_text(json.dumps(job.to_json()))
    samples = []
    for _ in range(n):
        proc = child("setup", path)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs the jobs of one workload and remembers where their output went."""

    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.executed = []  # (job index, job, output dir, exit status)

    def job(self, i):
        return self.workload.job(self.seed, i, SCENARIOS, self.workdir)

    def run(self, i, tracer=None, fresh=False):
        """Run job ``i``; return its summary (see ``workloads.job_summary``).

        ``fresh`` starts a new interpreter; ``tracer`` records into a shared
        tracer, in which case only the wall time is summarised.
        """
        job = self.job(i)
        out_dir = self.workdir / f"run-{len(self.executed)}"
        argv = job.argv(out_dir)
        # Collect earlier jobs' garbage now, so that it is not timed in this
        # job: a fresh `quadpend run` process starts from a clean heap too.
        gc.collect()
        if fresh:
            result = self.workdir / "child-result.json"
            t0 = time.perf_counter()
            proc = child("job", result, *argv)
            wall = time.perf_counter() - t0
            if proc.returncode == 0:
                summary = json.loads(result.read_text())
            else:
                summary = {"rc": f"exit {proc.returncode}: {proc.stderr[-400:]}"}
            summary["wall_s"] = wall
        elif tracer is None:
            with Tracer() as own:
                rc = execute(self.cli, argv, own)
            summary = job_summary(own)
            summary["rc"] = rc
        else:
            t0 = time.perf_counter()
            rc = execute(self.cli, argv, tracer)
            summary = {"rc": rc, "wall_s": time.perf_counter() - t0}
        self.executed.append((i, job, out_dir, summary["rc"]))
        return summary

    def check(self, reference):
        """Check every executed job; return outcomes and reference stats."""
        outcomes = []
        first = {}
        compared = sha_matches = 0
        for i, job, out_dir, rc in self.executed:
            runs = [check_run(sc, job.fmt, out_dir) for sc in job.load(self.cli)]
            aborted = any(r.aborted for r in runs)
            if rc != (3 if aborted else 0):
                for r in runs:
                    r.problems.append(f"exit status {rc!r}")
            for r in runs:
                key = (i, r.name)
                if key not in first:
                    first[key] = r.digests
                elif r.digests != first[key]:
                    r.problems.append("rerun of the same job is not byte-identical")
                if reference is not None and i < len(reference):
                    ref = reference[i].get(r.name)
                    if ref is None:
                        r.problems.append("no reference values for this run")
                    else:
                        compared += 1
                        sha_matches += compare_reference(r, ref)
                outcomes.append((i, r))
        return outcomes, compared, sha_matches


def measure(runner, seconds):
    """Untraced run: end-to-end metrics from timed jobs and fresh set-ups."""
    fresh = runner.workload.fresh_process
    setup = setup_samples(runner.job(0), SETUP_SAMPLES, runner.workdir)
    runner.run(0, fresh=fresh)  # warm-up; also the rerun reference of job 0
    records = []
    start = time.perf_counter()
    while (len(records) < MIN_JOBS or len(records) % CYCLE
           or time.perf_counter() - start < seconds):
        records.append(runner.run(len(records), fresh=fresh))
    if fresh:
        rss_kb = max(r.get("rss_kb", 0) for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Timings are medians over jobs that exited 0; failures are counted
    # separately, so an abort's short partial run does not skew the times.
    done = [r for r in records if r["rc"] == 0] or records
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "steps_per_s": statistics.median(r["steps"] / r["run_s"] for r in done),
        "setup_s": statistics.median(s["import_s"] + s["load_s"] for s in setup),
        "emit_s": statistics.median(r["emit_s"] for r in done),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = [f"{len(records)} timed jobs after 1 warm-up job, {len(done)} "
             f"of them exited 0 and give the times; {len(setup)} fresh set-ups"]
    return metrics, notes


def trace(runner, seconds, spans_path):
    """Traced run: per-layer metrics per cycle of the first jobs.

    Untraced and traced cycles of the same jobs alternate after a warm-up
    cycle, so that the tracing overhead compares cycles run side by side.
    """
    imports = setup_samples(runner.job(0), IMPORT_SAMPLES, runner.workdir)
    for i in range(CYCLE):
        runner.run(i)  # warm-up; also the untraced bytes traced runs must match
    tracer = Tracer(ALL_LAYERS)
    untraced_walls, traced_walls = [], []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for i in range(CYCLE):
            runner.run(i)
        untraced_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with tracer:
            for i in range(CYCLE):
                runner.run(i, tracer=tracer)
                tracer.run_id += 1
        traced_walls.append(time.perf_counter() - t0)
    cycles = len(traced_walls)
    metrics = layer_metrics(tracer, cycles)
    wall = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    metrics.update({
        "cli.import.s": statistics.median(s["import_s"] for s in imports),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.overhead_ratio": wall / untraced - 1.0,
    })
    tracer.write(spans_path)
    notes = [f"{cycles} traced and {cycles} untraced cycles of {CYCLE} jobs, "
             f"alternating; spans in {spans_path}"]
    return metrics, notes


def benchmark(cli, args):
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(cli, workload, args.seed, workdir)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}.csv"
            values, notes = trace(runner, args.seconds, spans_path)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, notes = measure(runner, args.seconds)
            units = dict(END_TO_END)
        reference = None
        if args.seed == CANONICAL_SEED:
            doc = json.loads((HERE / "reference.json").read_text())
            reference = doc["workloads"][args.workload]
        outcomes, compared, sha_matches = runner.check(reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for _, r in outcomes if r.failed)
    correct = not any(r.problems for _, r in outcomes)
    print(f"quadpend benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; {json.dumps(machine())}")
    for note in notes:
        print(f"  {note}")
    for name, unit in {**units, **dict(UNBOUNDED)}.items():
        if name in values:
            print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g} "
          f"({failed} of {attempted} runs)")
    if reference is not None:
        print(f"  reference: {compared} runs compared; "
              f"series SHA-256 matches {sha_matches} of {compared}")
    for i, r in outcomes:
        if r.aborted:
            print(f"  job {i} {r.name}: aborted at t={r.abort_time} s "
                  f"({r.abort_reason})")
        for problem in r.problems:
            print(f"  job {i} {r.name}: CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


def pin(cli):
    """Run each bundled scenario once; print steps, timings and hashes."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"pin-{os.getpid()}"
    scenarios = {}
    try:
        for i, name in enumerate(cli.shipped_scenarios()):
            job = Job(str(SCENARIOS / name))
            out_dir = workdir / str(i)
            with Tracer() as tracer:
                rc = execute(cli, job.argv(out_dir), tracer)
            s = job_summary(tracer)
            (sc,) = job.load(cli)
            scenarios[sc.name] = {
                "exit": rc, "steps": s["steps"], "run_s": s["run_s"],
                "us_per_step": s["run_s"] / s["steps"] * 1e6,
                "emit_s": s["emit_s"],
                "csv_sha256": sha256(out_dir / f"{sc.name}.csv"),
                "metrics_sha256": sha256(out_dir / f"{sc.name}.metrics.json"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pinned = HERE / "pins.json"
    if pinned.exists():
        old = json.loads(pinned.read_text())["scenarios"]
        for name, entry in scenarios.items():
            same = all(old.get(name, {}).get(k) == entry[k]
                       for k in ("csv_sha256", "metrics_sha256"))
            print(f"{name}: {'matches pins.json' if same else 'DIFFERS from pins.json'}",
                  file=sys.stderr)
    print(json.dumps({"machine": machine(), "scenarios": scenarios}, indent=1))
    return 0


def make_reference(cli):
    """Print reference metrics and series hashes for the canonical seed."""
    OUT.mkdir(exist_ok=True)
    doc = {"seed": CANONICAL_SEED, "rtol": REFERENCE_RTOL, "workloads": {}}
    for name, workload in WORKLOADS.items():
        workdir = OUT / f"reference-{name}-{os.getpid()}"
        workdir.mkdir()
        try:
            runner = Runner(cli, workload, CANONICAL_SEED, workdir)
            for i in range(REFERENCE_JOBS[name]):
                runner.run(i)
            entries = []
            for i, job, out_dir, rc in runner.executed:
                entry = {}
                for sc in job.load(cli):
                    r = check_run(sc, job.fmt, out_dir)
                    if r.problems:
                        print(f"{name} job {i} {sc.name}: {r.problems}",
                              file=sys.stderr)
                    entry[sc.name] = {
                        "metrics": r.metrics,
                        "series_sha256": r.digests[f"{sc.name}.{job.fmt}"]}
                entries.append(entry)
            doc["workloads"][name] = entries
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be 0 or more")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--pin", action="store_true",
                      help="run each bundled scenario once and print pins")
    mode.add_argument("--make-reference", action="store_true",
                      help="print reference values for the canonical seed")
    parser.add_argument("--seed", type=seed_arg, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "quadpend" / "cli.py").is_file():
        print(f"error: no quadpend sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quadpend.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported quadpend from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin(cli)
    if args.make_reference:
        return make_reference(cli)
    return benchmark(cli, args)


if __name__ == "__main__":
    sys.exit(main())
